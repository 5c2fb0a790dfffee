(* rdna — Routing Design Network Analyzer.

   Command-line front end for the reverse-engineering methodology:
   parse and anonymize configuration files, derive routing instances,
   pathways and reachability, generate synthetic networks, and run the
   31-network study. *)

open Cmdliner

(* --- shared helpers ----------------------------------------------------- *)

let die ~code fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "rdna: error [%s]: %s\n" code msg;
      exit 1)
    fmt

(* Failures an entry point can legitimately hit — unreadable input,
   injected chaos, a blown budget — become one-line coded errors on
   stderr with exit 1.  A raw backtrace reaching the user is a bug. *)
let guard f =
  try f () with
  | Sys_error msg -> die ~code:"io" "%s" msg
  | Rd_util.Cancel.Cancelled _ as e ->
    (* 130, the shell's interrupted convention — distinct from the coded
       exit 1, so wrappers can tell "stopped on request or deadline"
       from "found problems". *)
    Printf.eprintf "rdna: error [cancelled]: %s\n" (Printexc.to_string e);
    exit 130
  | Rd_util.Fault.Injected _ as e -> die ~code:"fault-injected" "%s" (Printexc.to_string e)
  | Rd_util.Limits.Budget_exceeded _ as e ->
    die ~code:"budget-exceeded" "%s" (Printexc.to_string e)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let load_dir dir =
  if not (Sys.file_exists dir) then die ~code:"no-such-dir" "%s: no such directory" dir;
  if not (Sys.is_directory dir) then die ~code:"not-a-dir" "%s: not a directory" dir;
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter_map (fun f ->
       let path = Filename.concat dir f in
       if Sys.is_directory path then None else Some (f, read_file path))

let analyze_dir dir = Rd_core.Analysis.analyze ~name:(Filename.basename dir) (load_dir dir)

(* A plain string, not cmdliner's [dir] converter: the latter rejects a
   missing directory with its own usage-style message and exit 124,
   where every entry point must answer with a coded one-liner, exit 1. *)
let dir_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc:"Directory of configuration files.")

(* Flags several commands share; the help text is the caller's. *)
let json_arg ~doc = Arg.(value & flag & info [ "json" ] ~doc)

let jobs_arg ~doc =
  Arg.(value & opt int (Rd_util.Pool.default_jobs ()) & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let seed_arg ?(default = 2004) ~doc () =
  Arg.(value & opt int default & info [ "seed" ] ~docv:"SEED" ~doc)

(* --- parse -------------------------------------------------------------- *)

let parse_cmd =
  let run dir strict =
    guard @@ fun () ->
    let errors = ref 0 in
    List.iter
      (fun (name, text) ->
        let c, diags = Rd_config.Parser.parse_with_diags ~file:name text in
        let e, w, _ = Rd_config.Diag.counts diags in
        errors := !errors + e;
        Printf.printf "%s: %d lines, %d commands, %d interfaces, %d processes, %d acls, %d route-maps, %d statics, %d unknown\n"
          name c.total_lines c.command_count (List.length c.interfaces)
          (List.length c.processes) (List.length c.acls) (List.length c.route_maps)
          (List.length c.statics) (List.length c.unknown);
        if strict && (e > 0 || w > 0) then
          List.iter (fun d -> print_endline ("  " ^ Rd_config.Diag.to_string d)) diags)
      (load_dir dir);
    if strict && !errors > 0 then begin
      Printf.eprintf "%d parse errors\n" !errors;
      exit 1
    end
  in
  let strict_arg =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:"Print parse diagnostics and exit non-zero if any line of a modeled command \
                   was malformed (error-severity diagnostics).")
  in
  Cmd.v (Cmd.info "parse" ~doc:"Parse configuration files and report per-file statistics.")
    Term.(const run $ dir_arg $ strict_arg)

(* --- lint --------------------------------------------------------------- *)

let lint_cmd =
  let run dir json jobs =
    guard @@ fun () ->
    let diags = Rd_core.Lint.lint_files ~jobs (load_dir dir) in
    if json then print_endline (Rd_util.Json.to_string (Rd_core.Lint.to_json diags))
    else begin
      print_string (Rd_core.Lint.render diags);
      let e, w, i = Rd_config.Diag.counts diags in
      if e + w + i > 0 then Printf.printf "%d errors, %d warnings, %d notes\n" e w i
    end;
    if Rd_config.Diag.has_errors diags then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Static checks on configuration files: parse diagnostics plus cross-reference and \
             consistency rules (dangling/unused/duplicate ACLs and route-maps, BGP neighbors \
             without remote-as, OSPF redistribution without metric, overlapping interface \
             addresses).  Exits non-zero if any error-severity finding is reported.")
    Term.(const run $ dir_arg
          $ json_arg ~doc:"Emit diagnostics as a JSON array."
          $ jobs_arg ~doc:"Worker domains for parallel linting.")

(* --- anonymize ---------------------------------------------------------- *)

let anonymize_cmd =
  let run dir key out =
    guard @@ fun () ->
    let anonymizer = Rd_config.Anonymizer.create ~key in
    if not (Sys.file_exists out) then Sys.mkdir out 0o755;
    List.iteri
      (fun i (_, text) ->
        let oc = open_out (Filename.concat out (Printf.sprintf "config%d" (i + 1))) in
        output_string oc (Rd_config.Anonymizer.anonymize_config anonymizer text);
        close_out oc)
      (load_dir dir);
    Printf.printf "anonymized files written to %s\n" out
  in
  let key_arg =
    Arg.(value & opt string "rdna" & info [ "key" ] ~docv:"KEY" ~doc:"Anonymization key.")
  in
  let out_arg =
    Arg.(value & opt string "anonymized" & info [ "out"; "o" ] ~docv:"OUT" ~doc:"Output directory.")
  in
  Cmd.v
    (Cmd.info "anonymize"
       ~doc:"Anonymize configuration files (SHA-1 token hashing, prefix-preserving addresses).")
    Term.(const run $ dir_arg $ key_arg $ out_arg)

(* --- summary / instances ------------------------------------------------ *)

let summary_cmd =
  let run dir = guard @@ fun () -> print_string (Rd_core.Analysis.summary (analyze_dir dir)) in
  Cmd.v
    (Cmd.info "summary" ~doc:"Full routing-design summary of a directory of configurations.")
    Term.(const run $ dir_arg)

let instances_cmd =
  let run dir =
    guard @@ fun () ->
    let a = analyze_dir dir in
    Array.iter
      (fun i -> print_endline (Rd_routing.Instance.to_string i))
      a.graph.assignment.instances;
    let ev = Rd_core.Design_class.classify a in
    Printf.printf "design classification: %s\n"
      (Rd_core.Design_class.design_to_string ev.design)
  in
  Cmd.v (Cmd.info "instances" ~doc:"List the network's routing instances.")
    Term.(const run $ dir_arg)

(* --- processes -------------------------------------------------------------- *)

let processes_cmd =
  let run dir =
    guard @@ fun () ->
    let a = analyze_dir dir in
    print_string (Rd_routing.Process_graph.render (Rd_routing.Process_graph.build a.catalog))
  in
  Cmd.v
    (Cmd.info "processes" ~doc:"The routing process graph: RIBs, adjacencies, redistributions (paper §3.1).")
    Term.(const run $ dir_arg)

(* --- roles ---------------------------------------------------------------- *)

let roles_cmd =
  let run dir =
    guard @@ fun () ->
    let a = analyze_dir dir in
    let c = Rd_core.Roles.count a in
    let row name (intra, inter) = [ name; string_of_int intra; string_of_int inter ] in
    Rd_util.Table.print
      ~headers:[ "protocol"; "intra"; "inter" ]
      ~aligns:[ Rd_util.Table.Left; Rd_util.Table.Right; Rd_util.Table.Right ]
      [
        row "OSPF (instances)" c.ospf;
        row "EIGRP (instances)" c.eigrp;
        row "RIP (instances)" c.rip;
        row "EBGP (sessions)" c.ebgp_sessions;
      ];
    let igp, ebgp = Rd_core.Roles.total_conventional_fraction c in
    Printf.printf "conventional: %.1f%% IGP intra, %.1f%% EBGP inter\n" (100.0 *. igp)
      (100.0 *. ebgp)
  in
  Cmd.v (Cmd.info "roles" ~doc:"Intra/inter-domain protocol roles (paper Table 1).")
    Term.(const run $ dir_arg)

(* --- areas ---------------------------------------------------------------- *)

let areas_cmd =
  let run dir =
    guard @@ fun () ->
    let a = analyze_dir dir in
    let infos = Rd_routing.Areas.analyze a.catalog a.graph.assignment in
    if infos = [] then print_endline "no OSPF instances"
    else List.iter (fun info -> print_string (Rd_routing.Areas.render a.catalog info)) infos
  in
  Cmd.v (Cmd.info "areas" ~doc:"OSPF area structure and area border routers.")
    Term.(const run $ dir_arg)

(* --- pathway ------------------------------------------------------------ *)

let pathway_cmd =
  let run dir router =
    guard @@ fun () ->
    let a = analyze_dir dir in
    match Rd_topo.Topology.router_index a.topo router with
    | None -> die ~code:"no-such-router" "%s: no such router" router
    | Some ri ->
      print_string (Rd_routing.Pathway.render a.graph (Rd_routing.Pathway.build a.graph ~router:ri))
  in
  let router_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"ROUTER" ~doc:"Router hostname or file name.")
  in
  Cmd.v (Cmd.info "pathway" ~doc:"Route pathway graph for a router (paper §3.3).")
    Term.(const run $ dir_arg $ router_arg)

(* --- reach -------------------------------------------------------------- *)

let reach_cmd =
  let run dir src dst =
    guard @@ fun () ->
    match (Rd_addr.Ipv4.of_string src, Rd_addr.Ipv4.of_string dst) with
    | Some s, Some d ->
      let a = analyze_dir dir in
      let r = Rd_reach.Reachability.compute a.graph in
      Printf.printf "%s -> %s: %b\n" src dst (Rd_reach.Reachability.can_reach r ~src:s ~dst:d);
      Printf.printf "%s -> %s: %b\n" dst src (Rd_reach.Reachability.can_reach r ~src:d ~dst:s)
    | None, _ -> die ~code:"bad-address" "%s: not an IPv4 address" src
    | _, None -> die ~code:"bad-address" "%s: not an IPv4 address" dst
  in
  let addr n doc = Arg.(required & pos n (some string) None & info [] ~docv:"ADDR" ~doc) in
  Cmd.v (Cmd.info "reach" ~doc:"Static reachability verdict between two addresses (§6.2).")
    Term.(const run $ dir_arg $ addr 1 "Source address." $ addr 2 "Destination address.")

(* --- dot ---------------------------------------------------------------- *)

let dot_cmd =
  let run dir which =
    guard @@ fun () ->
    match which with
    | "instances" -> print_string (Rd_routing.Instance_graph.to_dot (analyze_dir dir).graph)
    | "processes" ->
      print_string
        (Rd_routing.Process_graph.to_dot
           (Rd_routing.Process_graph.build (analyze_dir dir).catalog))
    | other -> die ~code:"unknown-graph" "%s: unknown graph (expected instances|processes)" other
  in
  let which_arg =
    Arg.(value & pos 1 string "instances" & info [] ~docv:"GRAPH" ~doc:"instances or processes.")
  in
  Cmd.v (Cmd.info "dot" ~doc:"Export the instance or process graph as Graphviz DOT.")
    Term.(const run $ dir_arg $ which_arg)

(* --- audit -------------------------------------------------------------- *)

let audit_cmd =
  let run dir json =
    guard @@ fun () ->
    let findings = Rd_core.Audit.run_all (analyze_dir dir) in
    if json then
      print_endline (Rd_util.Json.to_string (Rd_core.Audit.to_json findings))
    else begin
      print_string (Rd_core.Audit.render findings);
      Printf.printf "%d findings\n" (List.length findings)
    end
  in
  Cmd.v
    (Cmd.info "audit" ~doc:"Vulnerability/anomaly audit of a routing design (paper §8.1).")
    Term.(const run $ dir_arg
          $ json_arg ~doc:"Emit the findings as a JSON array of diagnostics (stable audit-* codes).")

(* --- inventory ------------------------------------------------------------ *)

let inventory_cmd =
  let run dir against =
    guard @@ fun () ->
    let a = analyze_dir dir in
    match against with
    | None -> print_string (Rd_core.Inventory.report a)
    | Some other ->
      let b = analyze_dir other in
      print_string
        (Rd_core.Inventory.render_delta (Rd_core.Inventory.diff ~old_snapshot:a ~new_snapshot:b))
  in
  let against_arg =
    Arg.(value & opt (some string) None & info [ "against" ] ~docv:"DIR" ~doc:"Diff against a newer snapshot directory.")
  in
  Cmd.v
    (Cmd.info "inventory" ~doc:"Equipment/addressing inventory, or a snapshot diff (paper §8.1).")
    Term.(const run $ dir_arg $ against_arg)


(* --- the sweep front end -------------------------------------------------- *)

(* whatif, crosscheck, netlint and study are sweeps.  Each composes its
   flags from the terms below, so every flag, every usage error and every
   step of the run plumbing is written once. *)

(* The study networks a sweep covers: the master seed, and the net ids
   of [--only] ([None] = all 31). *)
type population = { seed : int; only : int list option }

let population ~seed_doc ~only_doc =
  let only = Arg.(value & opt (list int) [] & info [ "only" ] ~docv:"IDS" ~doc:only_doc) in
  Term.(const (fun seed only -> { seed; only = (if only = [] then None else Some only) })
        $ seed_arg ~doc:seed_doc () $ only)

type target = Dir of string | Study of population

(* One directory of configurations, or [--study]: never both, never
   neither. *)
let target ~study_doc =
  let dir =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"DIR" ~doc:"Directory of configuration files (omit with $(b,--study)).")
  in
  let study = Arg.(value & flag & info [ "study" ] ~doc:study_doc) in
  let resolve dir study pop =
    match (dir, study) with
    | Some _, true -> die ~code:"usage" "give either DIR or --study, not both"
    | None, false -> die ~code:"usage" "give a DIR of configurations or --study"
    | Some d, false -> Dir d
    | None, true -> Study pop
  in
  Term.(const resolve $ dir $ study
        $ population ~seed_doc:"Master seed (with --study)."
            ~only_doc:"Comma-separated net ids (with --study).")

type budget = { deadline : float option; task_timeout : float option }

let budget =
  let deadline =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"SEC"
             ~doc:"Whole-run budget: after $(docv) seconds every remaining network degrades \
                   to a Timed_out failure row at its next poll point (exit 1), instead of \
                   running to completion.")
  in
  let task_timeout =
    Arg.(value & opt (some float) None
         & info [ "task-timeout" ] ~docv:"SEC"
             ~doc:"Per-network budget, clocked from each network's start: one slow network \
                   degrades alone while the rest of the sweep completes.")
  in
  Term.(const (fun deadline task_timeout -> { deadline; task_timeout }) $ deadline $ task_timeout)

(* The run's root token, and the token one directory's work polls.
   [--deadline] arms the root with an absolute expiry, SIGINT/SIGTERM
   trip it by hand; [--task-timeout] derives the child.  Study sweeps
   pass the root and [task_timeout] to [Rd_study] instead, which
   derives one child per network.  Work stops cooperatively at the next
   poll point; the command then renders whatever completed and ends in
   [conclude]. *)
let tokens b =
  let root = Rd_util.Cancel.create ?deadline:b.deadline () in
  let handle name = Sys.Signal_handle (fun _ -> Rd_util.Cancel.cancel ~reason:name root) in
  (try Sys.set_signal Sys.sigint (handle "SIGINT") with Invalid_argument _ | Sys_error _ -> ());
  (try Sys.set_signal Sys.sigterm (handle "SIGTERM") with Invalid_argument _ | Sys_error _ -> ());
  (root, match b.task_timeout with None -> root | Some dl -> Rd_util.Cancel.child ~deadline:dl root)

type checkpoint = { dir : string option; resume : bool }

let checkpoint =
  let dir =
    Arg.(value & opt (some string) None
         & info [ "checkpoint" ] ~docv:"DIR"
             ~doc:"Durably persist each completed network's result to the content-addressed \
                   store in $(docv) as it finishes (atomic write-then-rename; corrupt entries \
                   degrade to misses).")
  in
  let resume =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:"Probe the $(b,--checkpoint) store before building each network and replay \
                   hits verbatim — an interrupted sweep restarted with $(b,--resume) produces \
                   a byte-identical report, skipping the finished networks (the stderr store \
                   stats line shows the hits).")
  in
  Term.(const (fun dir resume -> { dir; resume }) $ dir $ resume)

(* Whether any flag only a supervised study sweep honours was given. *)
let supervised b ck = b.deadline <> None || b.task_timeout <> None || ck.dir <> None || ck.resume

let open_checkpoint ?metrics ck = function
  | Dir _ ->
    if ck.dir <> None || ck.resume then
      die ~code:"usage" "--checkpoint/--resume apply to --study sweeps";
    None
  | Study _ -> (
    match ck.dir with
    | None ->
      if ck.resume then die ~code:"usage" "--resume requires --checkpoint DIR";
      None
    | Some d -> Some (Rd_study.Checkpoint.open_dir ?metrics d))

(* [--inject-faults SPEC], falling back to [RDNA_FAULTS]: the spec as
   given on the command line, and the parsed plan. *)
let faults ~doc =
  let parse spec =
    let plan =
      match spec with
      | Some s -> (
        match Rd_util.Fault.of_spec s with
        | Ok f -> Some f
        | Error msg -> die ~code:"bad-fault-spec" "--inject-faults: %s" msg)
      | None -> (
        match Rd_util.Fault.from_env () with
        | Ok f -> f
        | Error msg -> die ~code:"bad-fault-spec" "RDNA_FAULTS: %s" msg)
    in
    (spec, plan)
  in
  Term.(const parse
        $ Arg.(value & opt (some string) None & info [ "inject-faults" ] ~docv:"SPEC" ~doc))

(* Tracing and metrics are purely observational: a sweep's report is
   byte-identical with or without them.  [finish] writes the trace file
   and prints (or writes) the metrics snapshot. *)
type observe = {
  trace : Rd_util.Trace.t option;
  metrics : Rd_util.Metrics.t option;
  timing : bool;
  finish : unit -> unit;
}

let observe ?(timing = Term.const false) ?(metrics_json = Term.const None) ~trace_doc
    ~metrics_doc () =
  let trace_file =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc:trace_doc)
  in
  let metrics_flag = Arg.(value & flag & info [ "metrics" ] ~doc:metrics_doc) in
  let make timing trace_file metrics_flag metrics_json =
    let trace = if timing || trace_file <> None then Some (Rd_util.Trace.create ()) else None in
    let metrics =
      if metrics_flag || metrics_json <> None then Some (Rd_util.Metrics.create ()) else None
    in
    let finish () =
      (match (trace, trace_file) with
       | Some t, Some path ->
         Rd_util.Trace.to_file t path;
         Printf.eprintf "trace written to %s (%d spans)\n" path
           (List.length (Rd_util.Trace.spans t))
       | _ -> ());
      match metrics with
      | None -> ()
      | Some m ->
        if metrics_flag then begin
          print_endline "--- metrics ---";
          print_string (Rd_util.Metrics.render m)
        end;
        Option.iter
          (fun path ->
            Rd_util.Json.to_file path (Rd_util.Metrics.to_json m);
            Printf.eprintf "metrics written to %s\n" path)
          metrics_json
    in
    { trace; metrics; timing; finish }
  in
  Term.(const make $ timing $ trace_file $ metrics_flag $ metrics_json)

let print_failures ~total failures =
  if failures <> [] then print_string (Rd_study.Population.render_failures ~total failures)

(* The end of every sweep: the checkpoint store stats on stderr, then
   exit 130 if a signal stopped the run, else 1 if [failed].  A tripped
   [--deadline] is not a signal: it degrades per network into failure
   rows instead. *)
let conclude ?root ?checkpoint failed =
  Option.iter (fun ck -> prerr_endline (Rd_study.Checkpoint.render_stats ck)) checkpoint;
  (match Option.bind root Rd_util.Cancel.status with
   | Some (Rd_util.Cancel.Stopped _) -> exit 130
   | _ -> ());
  if failed then exit 1

(* --- whatif ------------------------------------------------------------- *)

let whatif_cmd =
  let module J = Rd_util.Json in
  let outcome_json (o : Rd_core.Engine.outcome) =
    J.Obj
      [
        ("label", J.String o.scenario.label);
        ( "changes",
          J.List
            (List.map
               (fun c -> J.String (Rd_core.Whatif.change_to_string c))
               o.scenario.changes) );
        ("instances_before", J.Int o.diff.instances_before);
        ("instances_after", J.Int o.diff.instances_after);
        ("split_instances", J.Int (List.length o.diff.split_instances));
        ("lost_pairs", J.Int (List.length o.diff.lost_reachability));
        ("touched_files", J.List (List.map (fun f -> J.String f) o.touched));
        ("warnings", J.List (List.map (fun w -> J.String w) o.diff.warnings));
        ("seconds", J.Float o.seconds);
      ]
  in
  let network_fields name outcomes =
    [ ("network", J.String name); ("scenarios", J.List (List.map outcome_json outcomes)) ]
  in
  let cache_json engine =
    J.Obj
      (List.map
         (fun (name, (s : Rd_util.Cache.stats)) ->
           ( name,
             J.Obj
               [
                 ("hits", J.Int s.hits);
                 ("misses", J.Int s.misses);
                 ("evictions", J.Int s.evictions);
                 ("invalidations", J.Int s.invalidations);
               ] ))
         (Rd_core.Engine.stats engine))
  in
  let run target batch remove_routers remove_links shutdowns json obs budget ck =
    guard @@ fun () ->
    let inline_changes =
      List.map (fun r -> Rd_core.Whatif.Remove_router r) remove_routers
      @ List.map
          (fun l ->
            match Rd_addr.Prefix.of_string l with
            | Some p -> Rd_core.Whatif.Remove_link p
            | None -> die ~code:"usage" "--remove-link %s: not a prefix (a.b.c.d/len)" l)
          remove_links
      @ List.map
          (fun s ->
            match String.index_opt s ':' with
            | Some i when i > 0 && i < String.length s - 1 ->
              Rd_core.Whatif.Shutdown_interface
                (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
            | _ -> die ~code:"usage" "--shutdown-interface %s: expected ROUTER:IFACE" s)
          shutdowns
    in
    (match target with
     | Study _ when inline_changes <> [] || batch <> None ->
       die ~code:"usage" "--study derives per-network scenarios; it excludes --batch and \
                          inline change flags"
     | Study _ when json && supervised budget ck ->
       die ~code:"usage" "--json excludes --deadline/--task-timeout/--checkpoint/--resume"
     | _ -> ());
    let checkpoint = open_checkpoint ?metrics:obs.metrics ck target in
    match target with
    | Study { seed; only } when json ->
      let engine = Rd_core.Engine.create ?metrics:obs.metrics ?trace:obs.trace () in
      let networks =
        List.map
          (fun (spec : Rd_study.Population.spec) ->
            J.Obj (network_fields spec.label (Rd_study.Experiments.whatif_outcomes engine spec)))
          (Rd_study.Population.wanted_specs ?only ~master_seed:seed ())
      in
      print_endline
        (J.to_string (J.Obj [ ("networks", J.List networks); ("cache", cache_json engine) ]));
      obs.finish ()
    | Study { seed; only } ->
      let root, _ = tokens budget in
      let report, failures =
        Rd_study.Driver.whatif ?metrics:obs.metrics ?trace:obs.trace ~cancel:root
          ?task_timeout:budget.task_timeout ?checkpoint ~resume:ck.resume ?only
          ~master_seed:seed ()
      in
      print_string report;
      print_failures
        ~total:(List.length (Rd_study.Population.wanted_specs ?only ~master_seed:seed ()))
        failures;
      obs.finish ();
      conclude ~root ?checkpoint (failures <> [])
    | Dir d ->
      let root, cancel = tokens budget in
      let name = Filename.basename d in
      let files = load_dir d in
      let scenarios =
        match batch with
        | Some path ->
          if inline_changes <> [] then
            die ~code:"usage" "--batch excludes inline change flags";
          (match Rd_core.Whatif.parse_scenarios (read_file path) with
           | Ok [] -> die ~code:"usage" "%s: no scenarios" path
           | Ok s -> s
           | Error e -> die ~code:"bad-scenario" "%s: %s" path e)
        | None ->
          if inline_changes = [] then
            die ~code:"usage"
              "nothing to change (use --remove-router/--remove-link/--shutdown-interface, \
               or --batch FILE)"
          else [ { Rd_core.Whatif.label = "cli"; changes = inline_changes } ]
      in
      let engine = Rd_core.Engine.create ?metrics:obs.metrics ?trace:obs.trace ~cancel () in
      let net = Rd_core.Engine.load engine ~name files in
      let outcomes = Rd_core.Engine.run_scenarios engine net scenarios in
      (if json then
         print_endline
           (J.to_string (J.Obj (network_fields name outcomes @ [ ("cache", cache_json engine) ])))
       else
         match (batch, outcomes) with
         | None, [ o ] ->
           (* single inline scenario: the classic detailed diff *)
           print_string (Rd_core.Whatif.render o.diff)
         | _ ->
           print_string
             (Rd_study.Experiments.whatif_table (Rd_study.Experiments.whatif_rows name outcomes)));
      obs.finish ();
      conclude ~root false
  in
  let batch_arg =
    Arg.(value & opt (some string) None
         & info [ "batch" ] ~docv:"SCENARIOS"
             ~doc:"Run every scenario of $(docv) (one per line: \
                   $(b,[LABEL:] CHANGE [; CHANGE]...) where a change is \
                   $(b,remove-router NAME), $(b,remove-link A.B.C.D/LEN), or \
                   $(b,shutdown-interface ROUTER IFACE); $(b,#) comments allowed) against \
                   the one loaded network, reusing parsed state, the baseline reachability \
                   fixpoint, and per-scenario artifacts between scenarios.")
  in
  let routers_arg =
    Arg.(value & opt_all string [] & info [ "remove-router" ] ~docv:"NAME" ~doc:"Take a router out of service.")
  in
  let links_arg =
    Arg.(value & opt_all string [] & info [ "remove-link" ] ~docv:"SUBNET" ~doc:"Shut the link with this subnet (a.b.c.d/len).")
  in
  let shutdown_arg =
    Arg.(value & opt_all string []
         & info [ "shutdown-interface" ] ~docv:"ROUTER:IFACE"
             ~doc:"Administratively shut one interface (colon-separated because interface \
                   names contain slashes, e.g. $(b,core1:Serial0/0)).")
  in
  Cmd.v
    (Cmd.info "whatif"
       ~doc:"Model the effect of failures/maintenance on the design (paper §8.1), \
             incrementally: batch scenarios share one content-addressed engine, and each \
             scenario's reachability restarts from the baseline fixpoint's dirtied frontier \
             only.")
    Term.(const run
          $ target
              ~study_doc:"Sweep derived maintenance scenarios over every network of the \
                          31-network study population through one shared incremental engine."
          $ batch_arg $ routers_arg $ links_arg $ shutdown_arg
          $ json_arg
              ~doc:"Emit per-scenario impact records and engine cache statistics as JSON \
                    (what CI archives)."
          $ observe
              ~trace_doc:"Write a Chrome trace_event JSON timeline (cache-miss spans included) \
                          to $(docv)."
              ~metrics_doc:"Collect cache hit/miss/eviction and fixpoint counters during the \
                            sweep and print the registry snapshot as tables."
              ()
          $ budget $ checkpoint)

(* --- crosscheck --------------------------------------------------------- *)

let crosscheck_cmd =
  let run (fault_spec, faults) target jobs json shrink repro_dir budget ck =
    guard @@ fun () ->
    let shrink_one ~name ~files (v : Rd_check.Crosscheck.violation) =
      let violates fs = Rd_check.Crosscheck.violates ~invariant:v.invariant ~name fs in
      let minimal = Rd_check.Shrink.shrink ~violates files in
      let out = Filename.concat repro_dir (name ^ "-" ^ v.invariant) in
      Rd_check.Shrink.write_repro ~dir:out ~network:name ~invariant:v.invariant ~detail:v.detail
        minimal;
      Printf.eprintf "repro written to %s (%d of %d files)\n" out (List.length minimal)
        (List.length files)
    in
    let checkpoint = open_checkpoint ck target in
    let root, cancel = tokens budget in
    (* (network, its configuration files on demand, result) *)
    let results =
      match target with
      | Dir d ->
        let name = Filename.basename d in
        let files = load_dir d in
        [ (name, (fun () -> files), Ok (Rd_check.Crosscheck.run ~cancel ?faults ~name files)) ]
      | Study { seed; only } ->
        (* The fault spec changes results, so it joins the resume key — a
           resumed run under different chaos misses instead of replaying. *)
        let salt = match fault_spec with Some s -> [ "faults=" ^ s ] | None -> [] in
        Rd_study.Driver.crosscheck ?faults ~cancel:root ?task_timeout:budget.task_timeout ~salt
          ~jobs ?checkpoint ~resume:ck.resume ?only ~master_seed:seed ()
        |> List.map (fun ((spec : Rd_study.Population.spec), r) ->
               (spec.label, (fun () -> Rd_study.Population.generate_one spec), r))
    in
    let reports, failures = Rd_study.Population.partition (List.map (fun (_, _, r) -> r) results) in
    if json then print_endline (Rd_util.Json.to_string (Rd_check.Crosscheck.to_json reports))
    else print_string (Rd_check.Crosscheck.render reports);
    print_failures ~total:(List.length results) failures;
    if shrink then
      List.iter
        (fun (name, files, r) ->
          match r with
          | Ok { Rd_check.Crosscheck.violations = v :: _; _ } ->
            shrink_one ~name ~files:(files ()) v
          | _ -> ())
        results;
    conclude ~root ?checkpoint (failures <> [] || Rd_check.Crosscheck.has_errors reports)
  in
  let shrink_arg =
    Arg.(value & flag
         & info [ "shrink" ]
             ~doc:"Delta-debug each violating network to a minimal set of configuration \
                   files/stanzas and write a self-contained repro directory.")
  in
  let repro_arg =
    Arg.(value & opt string "crosscheck-repro"
         & info [ "repro-dir" ] ~docv:"DIR" ~doc:"Where $(b,--shrink) writes repro directories.")
  in
  Cmd.v
    (Cmd.info "crosscheck"
       ~doc:"Differential reachability cross-check: assert the concrete simulation's routes are \
             contained in the static analysis (sim\xe2\x8a\x86static oracle) and run the \
             metamorphic invariant suite (anonymize-structure, deny-filter monotonicity, \
             remove-router monotonicity, worklist=rounds).  Exits non-zero on any \
             error-severity violation.")
    Term.(const run
          $ faults
              ~doc:"Deterministic chaos: inject faults per $(docv) (e.g. \
                    $(b,seed=7;crosscheck.network:delay=5:key=net16)); falls back to the \
                    $(b,RDNA_FAULTS) environment variable."
          $ target ~study_doc:"Cross-check every network of the 31-network study population."
          $ jobs_arg ~doc:"Worker domains for parallel cross-checking."
          $ json_arg ~doc:"Emit the report as JSON (what CI archives)."
          $ shrink_arg $ repro_arg $ budget $ checkpoint)

(* --- netlint ------------------------------------------------------------ *)

let netlint_cmd =
  let run rules target jobs json budget =
    guard @@ fun () ->
    let rules =
      match rules with
      | [] -> None
      | rs ->
        List.iter
          (fun r ->
            if not (List.mem r Rd_core.Netlint.all_rules) then
              die ~code:"unknown-rule" "%s: unknown rule (expected %s)" r
                (String.concat "|" Rd_core.Netlint.all_rules))
          rs;
        Some rs
    in
    let root, cancel = tokens budget in
    let reports, failures, total =
      match target with
      | Dir d ->
        let name = Filename.basename d in
        ([ Rd_core.Netlint.run ~cancel ?rules ~name (load_dir d) ], [], 1)
      | Study { seed; only } ->
        let results =
          Rd_study.Driver.sweep ~cancel:root ?task_timeout:budget.task_timeout ~jobs ?only
            ~stage:"netlint.network" ~salt:[] ~master_seed:seed
            (fun cancel (spec : Rd_study.Population.spec) ->
              let files = Rd_study.Population.generate_one spec in
              Rd_core.Netlint.run_analysis ?cancel ?rules ~files
                (Rd_core.Analysis.analyze ~jobs ?cancel ~name:spec.label files))
        in
        let reports, failures = Rd_study.Population.partition (List.map snd results) in
        (reports, failures, List.length results)
    in
    if json then print_endline (Rd_util.Json.to_string (Rd_core.Netlint.to_json reports))
    else print_string (Rd_core.Netlint.render reports);
    print_failures ~total failures;
    conclude ~root (failures <> [] || Rd_core.Netlint.has_errors reports)
  in
  let rules_arg =
    Arg.(value & opt (list string) []
         & info [ "rules" ] ~docv:"RULES"
             ~doc:"Comma-separated rule families to run (default: all of \
                   redistribution-loop, route-leak, peer-consistency, shadowed-rules).")
  in
  Cmd.v
    (Cmd.info "netlint"
       ~doc:"Network-wide semantic lint: redistribution-loop and route-leak dataflow over \
             the instance graph, BGP/OSPF peer-consistency checks, and shadowed \
             filter-rule detection.  Exits non-zero on any error-severity finding.")
    Term.(const run $ rules_arg
          $ target ~study_doc:"Lint every network of the 31-network study population."
          $ jobs_arg ~doc:"Worker domains for building the population."
          $ json_arg ~doc:"Emit the report as JSON (what CI archives)."
          $ budget)

(* --- generate ----------------------------------------------------------- *)

let generate_cmd =
  let run arch n seed out =
    guard @@ fun () ->
    let archetype =
      match arch with
      | "backbone" -> Rd_gen.Archetype.Backbone
      | "enterprise" -> Rd_gen.Archetype.Enterprise
      | "compartment" -> Rd_gen.Archetype.Compartment
      | "restricted" -> Rd_gen.Archetype.Restricted
      | "tier2" -> Rd_gen.Archetype.Tier2
      | "hub-spoke" -> Rd_gen.Archetype.Hub_spoke
      | _ -> Rd_gen.Archetype.Igp_only
    in
    let net = Rd_gen.Archetype.generate archetype ~seed ~n ~index:seed () in
    if not (Sys.file_exists out) then Sys.mkdir out 0o755;
    List.iter
      (fun (name, text) ->
        let oc = open_out (Filename.concat out name) in
        output_string oc text;
        close_out oc)
      (Rd_gen.Builder.to_texts net);
    Printf.printf "%d configurations written to %s\n" (Rd_gen.Builder.router_count net) out
  in
  let arch_arg =
    Arg.(value & pos 0 string "enterprise"
         & info [] ~docv:"ARCH"
             ~doc:"backbone|enterprise|compartment|restricted|tier2|hub-spoke|igp-only")
  in
  let n_arg = Arg.(value & opt int 30 & info [ "n" ] ~docv:"N" ~doc:"Router count.") in
  let out_arg = Arg.(value & opt string "generated" & info [ "out"; "o" ] ~docv:"OUT" ~doc:"Output directory.") in
  Cmd.v (Cmd.info "generate" ~doc:"Generate a synthetic network's configuration files.")
    Term.(const run $ arch_arg $ n_arg $ seed_arg ~default:1 ~doc:"PRNG seed." () $ out_arg)


(* --- study -------------------------------------------------------------- *)

let study_cmd =
  let run (pop : population) jobs obs (_, faults) fail_fast retries budget ck =
    guard @@ fun () ->
    if fail_fast && supervised budget ck then
      die ~code:"usage"
        "--fail-fast excludes --deadline/--task-timeout/--checkpoint/--resume (supervision \
         needs keep-going)";
    Option.iter (fun f -> Rd_util.Fault.set_metrics f obs.metrics) faults;
    let { seed; only } = pop in
    (* Default discipline is keep-going: one bad network degrades into a
       failed-network row while the other thirty print normally.
       --fail-fast restores abort-on-first-failure (caught by [guard]). *)
    let items, failures, total, root, checkpoint =
      if fail_fast then
        let nets =
          Rd_study.Population.build ?only ?trace:obs.trace ?metrics:obs.metrics ?faults ~jobs
            ~master_seed:seed ()
        in
        let items =
          List.map
            (fun (n : Rd_study.Population.network) ->
              { Rd_study.Driver.stat = Rd_study.Netstat.of_network n; network = Some n })
            nets
        in
        (items, [], List.length nets, None, None)
      else
        let checkpoint = open_checkpoint ?metrics:obs.metrics ck (Study pop) in
        let root, _ = tokens budget in
        let results =
          Rd_study.Driver.study ?trace:obs.trace ?metrics:obs.metrics ?faults ~cancel:root
            ?task_timeout:budget.task_timeout ~retries ~jobs ?checkpoint ~resume:ck.resume ?only
            ~master_seed:seed ()
        in
        let items, failures = Rd_study.Population.partition (List.map snd results) in
        (items, failures, List.length results, Some root, checkpoint)
    in
    List.iter
      (fun (i : Rd_study.Driver.study_item) ->
        print_string (Rd_study.Netstat.render_block i.stat))
      items;
    if only = None then begin
      let stats = List.map (fun (i : Rd_study.Driver.study_item) -> i.stat) items in
      print_string (Rd_study.Experiments.sec7_stats stats);
      print_string (Rd_study.Experiments.table1_stats stats);
      print_string (Rd_study.Experiments.table3_stats stats);
      print_string (Rd_study.Experiments.fig11_stats stats)
    end;
    print_failures ~total failures;
    (* The study proper never runs the reachability fixpoint; when metrics
       were asked for, run it per network (results discarded) so the
       reach.* fixpoint counters are populated.  Checkpoint-replayed
       networks carry no analysis, so they contribute no counters. *)
    Option.iter
      (fun metrics ->
        List.iter
          (fun (i : Rd_study.Driver.study_item) ->
            Option.iter
              (fun (n : Rd_study.Population.network) ->
                ignore (Rd_reach.Reachability.compute ~metrics n.analysis.graph))
              i.network)
          items)
      obs.metrics;
    (match obs.trace with
     | Some t when obs.timing ->
       Printf.printf "--- pipeline stage wall time (%d jobs) ---\n" jobs;
       print_string (Rd_util.Trace.render_stages t)
     | _ -> ());
    obs.finish ();
    conclude ?root ?checkpoint (failures <> [])
  in
  let timing_arg =
    Arg.(value & flag
         & info [ "timing" ]
             ~doc:"Report per-stage pipeline wall time (aggregated from the span tracer).")
  in
  let metrics_json_arg =
    Arg.(value & opt (some string) None
         & info [ "metrics-json" ] ~docv:"FILE"
             ~doc:"Like $(b,--metrics) but write the snapshot as JSON to $(docv).")
  in
  let fail_fast_arg =
    Arg.(value & flag
         & info [ "fail-fast" ]
             ~doc:"Abort the whole study on the first network whose analysis fails, with a \
                   coded error and exit 1 (the strict discipline).")
  in
  let retries_arg =
    Arg.(value & opt int 0
         & info [ "retries" ] ~docv:"N"
             ~doc:"Retry a failed network build up to $(docv) extra times before recording \
                   it as failed (keep-going mode only).")
  in
  Cmd.v (Cmd.info "study" ~doc:"Run the 31-network study (paper §5-§7).")
    Term.(const run
          $ population ~seed_doc:"Master seed." ~only_doc:"Comma-separated net ids."
          $ jobs_arg
              ~doc:"Worker domains for the parallel study build (default: $(b,RDNA_JOBS) or \
                    the recommended domain count)."
          (* --timing is served from the same recorder as --trace *)
          $ observe ~timing:timing_arg ~metrics_json:metrics_json_arg
              ~trace_doc:"Write a Chrome trace_event JSON timeline of the run to $(docv) (open \
                          in chrome://tracing or Perfetto).  Nested spans cover each network's \
                          analyze call, its pipeline stages, and pool tasks."
              ~metrics_doc:"Collect parser/pool/instance/fixpoint metrics during the run and \
                            print the registry snapshot as tables.  Also runs the per-network \
                            reachability fixpoint (output unchanged) so reach.* counters are \
                            populated."
              ()
          $ faults
              ~doc:"Deterministic chaos: inject faults per $(docv) (e.g. \
                    $(b,seed=7;study.network:raise:key=net4)); falls back to the \
                    $(b,RDNA_FAULTS) environment variable.  See the Fault module for the \
                    grammar."
          $ fail_fast_arg $ retries_arg $ budget $ checkpoint)

let () =
  let info = Cmd.info "rdna" ~version:"1.0.0" ~doc:"Routing design reverse engineering (SIGCOMM'04 reproduction)." in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            parse_cmd; lint_cmd; anonymize_cmd; summary_cmd; instances_cmd; processes_cmd; areas_cmd;
            roles_cmd; pathway_cmd; reach_cmd; dot_cmd; audit_cmd; inventory_cmd; whatif_cmd;
            crosscheck_cmd; netlint_cmd; generate_cmd; study_cmd;
          ]))
