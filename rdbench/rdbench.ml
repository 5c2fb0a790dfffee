(* One pass of a routedesign benchmark workload, in this process, on one
   worker domain.

     rdbench.exe (study|whatif|crosscheck) --seed N [--traced] [--chrome FILE]

   The process generates the study population's configuration text from
   the seed (the set-up, timed [setup_reps] times), runs the workload
   once over that text, checks every output, and prints one JSON object
   as its last line of standard output.  [run.py] drives it: it starts
   one fresh process per pass, so every pass starts with cold kernel
   memo tables and caches.

   With [--traced] the pass passes the libraries' own Trace/Metrics
   sinks, wraps each call into a layer in a harness span, attributes
   prefix-set kernel counters to the calling layer, and follows the pass
   with an attribution phase that times the layer functions the pass can
   only reach through an opaque wrapper (Engine.run_scenario,
   Crosscheck.run_analysis) on the same inputs. *)

open Rd_addr
module T = Rd_util.Trace
module M = Rd_util.Metrics
module J = Rd_util.Json
module Pop = Rd_study.Population
module Analysis = Rd_core.Analysis
module Engine = Rd_core.Engine
module Whatif = Rd_core.Whatif
module Reach = Rd_reach.Reachability
module Crosscheck = Rd_check.Crosscheck

(* --- harness context ------------------------------------------------------ *)

type ctx = {
  trace : T.t option;
  metrics : M.t option;
  pset : (string, int * int * int) Hashtbl.t;
      (** layer -> prefix-set kernel (nodes, memo hits, memo misses) spent in it. *)
  mutable failures : string list;  (** one line per failed check, newest first. *)
  mutable checks : int * int;
      (** whole-pass verdicts beside the operations: (attempted, failed). *)
}

(* A call into one layer: a harness span, plus the kernel work done
   inside it.  Untraced, it is exactly [f ()]. *)
let layer ctx name f =
  match ctx.trace with
  | None -> f ()
  | Some _ ->
    let s0 = Prefix_set.stats () in
    let r = T.span ~cat:"layer" ctx.trace name f in
    let s1 = Prefix_set.stats () in
    let n, h, m = Option.value ~default:(0, 0, 0) (Hashtbl.find_opt ctx.pset name) in
    Hashtbl.replace ctx.pset name
      ( n + s1.nodes - s0.nodes,
        h + s1.memo_hits - s0.memo_hits,
        m + s1.memo_misses - s0.memo_misses );
    r

let fail ctx fmt = Printf.ksprintf (fun s -> ctx.failures <- s :: ctx.failures) fmt

(* A whole-pass verdict; the message is recorded when [ok] is false. *)
let check ctx ok fmt =
  let n, bad = ctx.checks in
  ctx.checks <- (n + 1, if ok then bad else bad + 1);
  Printf.ksprintf (fun s -> if not ok then ctx.failures <- s :: ctx.failures) fmt

(* An operation (a network, a scenario or a verdict): its latency, and
   whether it completed and verified. *)
type op = { op : string; ms : float; ok : bool }

let timed f =
  let t0 = T.now () in
  let r = f () in
  (r, T.now () -. t0)

(* Run one operation.  It fails when [f] raises or records a failure. *)
let run_op ctx name f =
  let t0 = T.now () and before = List.length ctx.failures in
  match f () with
  | () -> { op = name; ms = 1000. *. (T.now () -. t0); ok = List.length ctx.failures = before }
  | exception e ->
    fail ctx "%s: %s" name (Printexc.to_string e);
    { op = name; ms = 1000. *. (T.now () -. t0); ok = false }

let digest s = Rd_util.Sha1.hex_of_string s

(* What a workload's pass hands back. *)
type pass = {
  ops : op list;
  digests : (string * string) list;  (** rendered output -> SHA-1. *)
  extra : (string * J.t) list;  (** workload-specific result fields. *)
  counts : (string * float) list;  (** per-layer counts read at the end of the pass. *)
  attribute : unit -> (string * float) list;
      (** the traced run's attribution phase; returns further counts. *)
}

(* --- set-up ----------------------------------------------------------------- *)

let crosscheck_max_routers = 250

let specs_of workload ~seed =
  let all = Pop.specs ~master_seed:seed in
  match workload with
  | "crosscheck" -> List.filter (fun (s : Pop.spec) -> s.n <= crosscheck_max_routers) all
  | _ -> all

let generate specs = List.map (fun (s : Pop.spec) -> (s, Pop.generate_one s)) specs

(* The set-up is timed this many times and reported as a median. *)
let setup_reps = 3

(* --- analysis --------------------------------------------------------------- *)

let is_degradation (d : Rd_config.Diag.t) = d.code = "config-failed" || d.code = "budget-exceeded"

(* Analysis.analyze, one public stage call at a time, so each stage gets
   a harness span and its own kernel counters.  The output digests check
   that the record built here equals the library's. *)
let analyze_staged ctx ~name files =
  let metrics = ctx.metrics in
  let parsed =
    layer ctx "parse" (fun () ->
        List.map
          (fun (f, text) ->
            let ast, ds = Rd_config.Parser.parse_with_diags ?metrics ~file:f text in
            ((f, ast), ds))
          files)
  in
  let configs = List.map fst parsed and diags = List.concat_map snd parsed in
  let topo = layer ctx "topology" (fun () -> Rd_topo.Topology.build configs) in
  let catalog = layer ctx "catalog" (fun () -> Rd_routing.Process.build topo) in
  let graph =
    layer ctx "instance_graph" (fun () -> Rd_routing.Instance_graph.build ?metrics catalog)
  in
  let blocks =
    layer ctx "blocks" (fun () ->
        Rd_addrspace.Blocks.discover ?metrics (Rd_addrspace.Blocks.subnets_of_configs configs))
  in
  let filter_stats = layer ctx "filter_stats" (fun () -> Rd_policy.Filter_stats.analyze topo) in
  { Analysis.name; configs; topo; catalog; graph; blocks; filter_stats; diags }

(* Untraced, the library's own entry point; traced, the same stages one
   call at a time.  A dropped configuration file fails the operation. *)
let analyze ctx ~name files =
  let a =
    match ctx.trace with
    | Some _ -> analyze_staged ctx ~name files
    | None -> Analysis.analyze ~jobs:1 ~name files
  in
  List.iter
    (fun (d : Rd_config.Diag.t) ->
      if is_degradation d then fail ctx "%s: degraded: %s" name d.message)
    a.diags;
  a

(* --- study ------------------------------------------------------------------ *)

(* Per-instance reachable address counts: a compact, order-stable
   rendering of a fixpoint for the output digest. *)
let render_reach name (r : Reach.t) =
  let n = Array.length r.routes in
  let b = Buffer.create (16 * n) in
  Printf.bprintf b "%s internal=%d" name (Prefix_set.count_addresses (Reach.internal_space r));
  for i = 0 to n - 1 do
    Printf.bprintf b " %d:%d" i (Prefix_set.count_addresses (Reach.routes_of r i))
  done;
  Buffer.add_char b '\n';
  Buffer.contents b

type study_net = {
  stat : Rd_study.Netstat.t;
  reach : string;
  lint : string;
  audit : string;
  netlint : Rd_core.Netlint.report;
}

let study_network ctx ((spec : Pop.spec), files) =
  let name = spec.label in
  let analysis = analyze ctx ~name files in
  let reach =
    layer ctx "reach" (fun () -> Reach.compute ?metrics:ctx.metrics analysis.graph)
  in
  let lint = layer ctx "lint" (fun () -> Rd_core.Lint.lint_files ~jobs:1 files) in
  let audit = layer ctx "audit" (fun () -> Rd_core.Audit.run_all analysis) in
  let netlint =
    layer ctx "netlint" (fun () ->
        Rd_core.Netlint.run_analysis ?trace:ctx.trace ?metrics:ctx.metrics ~files analysis)
  in
  let stat = layer ctx "report" (fun () -> Rd_study.Netstat.of_network { Pop.spec; analysis }) in
  layer ctx "verify" (fun () ->
      {
        stat;
        reach = render_reach name reach;
        lint = name ^ "\n" ^ Rd_core.Lint.render lint;
        audit = name ^ "\n" ^ Rd_core.Audit.render audit;
        netlint;
      })

let study ctx nets =
  let results = ref [] in
  let ops =
    List.map
      (fun ((spec : Pop.spec), files) ->
        run_op ctx spec.label (fun () ->
            results := study_network ctx (spec, files) :: !results))
      nets
  in
  let nets = List.rev !results in
  let report =
    layer ctx "report" (fun () ->
        let stats = List.map (fun n -> n.stat) nets in
        String.concat ""
          (List.map Rd_study.Netstat.render_block stats
          @ Rd_study.Experiments.
              [ sec7_stats stats; table1_stats stats; table3_stats stats; fig11_stats stats ]))
  in
  let netlint = List.map (fun n -> n.netlint) nets in
  let e, w, i = Rd_core.Netlint.counts netlint in
  check ctx (e = 0) "netlint: %d error-severity findings" e;
  let cat f = String.concat "" (List.map f nets) in
  let digests =
    layer ctx "verify" (fun () ->
        [
          ("study", digest report);
          ("reach", digest (cat (fun n -> n.reach)));
          ("lint", digest (cat (fun n -> n.lint)));
          ("audit", digest (cat (fun n -> n.audit)));
          ("netlint", digest (Rd_core.Netlint.render netlint));
        ])
  in
  {
    ops;
    digests;
    extra = [ ("netlint", J.List [ J.Int e; J.Int w; J.Int i ]) ];
    counts = [];
    attribute = (fun () -> []);
  }

(* --- what-if ---------------------------------------------------------------- *)

(* Everything a scenario computes except its wall time. *)
let scenario_row name (sc : Whatif.scenario) touched (d : Whatif.diff) =
  let ip = Ipv4.to_string in
  String.concat " | "
    [
      name;
      Whatif.scenario_to_string sc;
      Printf.sprintf "%d->%d" d.instances_before d.instances_after;
      String.concat ","
        (List.map
           (fun ((i : Rd_routing.Instance.t), k) -> Printf.sprintf "%d:%d" i.inst_id k)
           d.split_instances);
      String.concat "," (List.map (fun (a, b) -> ip a ^ ">" ^ ip b) d.lost_reachability);
      String.concat "," touched;
      String.concat ";" d.warnings;
    ]

let whatif ctx nets =
  let engine = Engine.create ?metrics:ctx.metrics ?trace:ctx.trace () in
  let misses () =
    List.fold_left (fun acc (_, (s : Rd_util.Cache.stats)) -> acc + s.misses) 0
      (Engine.stats engine)
  in
  (* One sweep over every network's derived scenarios; [on_scenario]
     sees each outcome. *)
  let sweep on_scenario =
    List.concat_map
      (fun ((spec : Pop.spec), files) ->
        let name = spec.label in
        match layer ctx "load" (fun () -> Engine.load engine ~name files) with
        | exception e ->
          fail ctx "%s: load: %s" name (Printexc.to_string e);
          [ { op = name; ms = 0.; ok = false } ]
        | net ->
          List.map
            (fun (sc : Whatif.scenario) ->
              let label = name ^ "/" ^ sc.label in
              run_op ctx label (fun () ->
                  let o = layer ctx "scenario" (fun () -> Engine.run_scenario engine net sc) in
                  on_scenario net sc o;
                  if o.diff.warnings <> [] then
                    fail ctx "%s: scenario matched nothing: %s" label
                      (String.concat "; " o.diff.warnings)))
            (Rd_study.Experiments.scenarios_of_analysis net.analysis))
      nets
  in
  let rows = ref [] and pass = ref [] in
  let ops =
    sweep (fun net sc o ->
        rows := scenario_row net.name sc o.touched o.diff :: !rows;
        pass := (net, sc, o) :: !pass)
  in
  let rows = List.rev !rows and pass = List.rev !pass in
  (* The warm repeat: every artifact is already in the engine's stores. *)
  let cold_misses = misses () in
  let warm_rows = ref [] in
  let _, warm_s =
    timed (fun () ->
        sweep (fun net sc o ->
            warm_rows := scenario_row net.name sc o.touched o.diff :: !warm_rows))
  in
  check ctx (List.rev !warm_rows = rows) "whatif: warm sweep differs from the first pass";
  check ctx (misses () = cold_misses) "whatif: warm sweep missed the cache %d times"
    (misses () - cold_misses);
  let counts =
    List.concat_map
      (fun (store, (s : Rd_util.Cache.stats)) ->
        [
          ("cache." ^ store ^ ".hits", float s.hits);
          ("cache." ^ store ^ ".misses", float s.misses);
        ])
      (Engine.stats engine)
  in
  (* Attribution: the three steps of a scenario miss, called directly on
     each scenario's inputs, plus from-scratch fixpoints of the same graph
     for contrast with the delta restart.  The direct result must equal
     the engine's. *)
  let attribute () =
    List.iter
      (fun ((net : Engine.network), (sc : Whatif.scenario), (o : Engine.outcome)) ->
        let empty = Prefix_set.empty in
        let rb = Engine.reachability ~external_offers:empty engine net in
        let d =
          layer ctx "whatif.apply_delta" (fun () -> Whatif.apply_delta net.analysis sc.changes)
        in
        (* The first fixpoint over a scenario's new graph pays the
           kernel's cold cost: hash-consing its sets and filling the memo
           tables.  The delta restart and a second scratch fixpoint then
           both run warm, on equal footing. *)
        let scratch () = Reach.compute ~external_offers:empty d.analysis.graph in
        ignore (layer ctx "reach.cold" scratch);
        let ra =
          layer ctx "reach.delta" (fun () ->
              Reach.compute_delta ~external_offers:empty ~previous:rb d.analysis.graph)
        in
        ignore (layer ctx "reach.warm" scratch);
        let diff =
          layer ctx "whatif.compare" (fun () ->
              Whatif.compare ~warnings:d.warnings ~reach_before:rb ~reach_after:ra
                ~before:net.analysis ~after:d.analysis ())
        in
        check ctx
          (scenario_row net.name sc d.touched diff = scenario_row net.name sc o.touched o.diff)
          "%s/%s: direct re-analysis differs from the engine's" net.name sc.label)
      pass;
    []
  in
  {
    ops;
    digests = [ ("whatif", layer ctx "verify" (fun () -> digest (String.concat "\n" rows))) ];
    extra = [ ("warm_sweep_s", J.Float warm_s) ];
    counts;
    attribute;
  }

(* --- cross-check ------------------------------------------------------------ *)

let crosscheck ctx nets =
  let reports = ref [] and analyses = ref [] in
  let ops =
    List.map
      (fun ((spec : Pop.spec), files) ->
        let name = spec.label in
        run_op ctx name (fun () ->
            let a = analyze ctx ~name files in
            let r = layer ctx "crosscheck" (fun () -> Crosscheck.run_analysis ~files a) in
            reports := r :: !reports;
            analyses := (a, files, r) :: !analyses;
            List.iter
              (fun (v : Crosscheck.violation) ->
                if v.severity = Rd_config.Diag.Error then
                  fail ctx "%s: %s: %s %s" name v.invariant v.subject v.detail)
              r.violations;
            List.iter (fun (inv, why) -> fail ctx "%s: %s skipped: %s" name inv why) r.skipped))
      nets
  in
  let reports = List.rev !reports and analyses = List.rev !analyses in
  (* Attribution: the fixpoint, the simulation, and each invariant alone.
     A single-invariant oracle call includes its own baseline fixpoint
     (and, for the two simulation invariants, its own simulation). *)
  let attribute () =
    let routes =
      List.fold_left
        (fun routes ((a : Analysis.t), files, (r : Crosscheck.report)) ->
        ignore (layer ctx "reach" (fun () -> Reach.compute ?metrics:ctx.metrics a.graph));
        let sim =
          layer ctx "sim" (fun () ->
              Rd_sim.Propagate.run ?metrics:ctx.metrics
                (Rd_routing.Process_graph.build a.catalog))
        in
        List.iter
          (fun inv ->
            let one =
              layer ctx ("crosscheck." ^ inv) (fun () ->
                  Crosscheck.run_analysis ~invariants:[ inv ] ~files a)
            in
            let mine = List.filter (fun (v : Crosscheck.violation) -> v.invariant = inv) in
            check ctx (mine one.violations = mine r.violations)
              "%s: %s alone differs from the full oracle" a.name inv)
          Crosscheck.all_invariants;
        routes + Rd_sim.Propagate.total_routes sim)
        0 analyses
    in
    [ ("sim.routes", float routes) ]
  in
  {
    ops;
    digests =
      [ ("crosscheck", layer ctx "verify" (fun () -> digest (Crosscheck.render reports))) ];
    extra = [];
    counts = [];
    attribute;
  }

(* --- self-time attribution ---------------------------------------------------- *)

(* Layer of a span: harness spans are named by layer; the libraries'
   stage spans are mapped onto the same names, and cache misses are
   split by store. *)
let layer_of (s : T.span) =
  match s.name with
  | "cache.miss" -> (
    match List.assoc_opt "cache" s.args with
    | Some (T.String store) -> "cache.miss." ^ store
    | _ -> s.name)
  | "instance-graph" -> "instance_graph"
  | "filter-stats" -> "filter_stats"
  | n -> n

(* Self time per layer, inclusive time and span count: each span's
   duration minus what its direct children cover.  All spans come from
   the one worker domain, so nesting is interval containment. *)
let self_times spans =
  let tbl = Hashtbl.create 64 and order = ref [] in
  let add name self incl =
    match Hashtbl.find_opt tbl name with
    | Some (s, i, n) -> Hashtbl.replace tbl name (s +. self, i +. incl, n + 1)
    | None ->
      order := name :: !order;
      Hashtbl.replace tbl name (self, incl, 1)
  in
  let spans =
    List.sort
      (fun (a : T.span) (b : T.span) ->
        match compare a.ts_us b.ts_us with 0 -> compare b.dur_us a.dur_us | c -> c)
      spans
  in
  (* Stack of (span, children total) open at the current start time. *)
  let stack = ref [] in
  let close (s, kids) = add (layer_of s) ((s.T.dur_us -. kids) /. 1e6) (s.T.dur_us /. 1e6) in
  List.iter
    (fun (s : T.span) ->
      let rec pop () =
        match !stack with
        | (p, kids) :: rest when p.T.ts_us +. p.T.dur_us <= s.ts_us ->
          close (p, kids);
          stack := rest;
          pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with
       | (p, kids) :: rest -> stack := (p, kids +. s.dur_us) :: rest
       | [] -> ());
      stack := (s, 0.) :: !stack)
    spans;
  List.iter close !stack;
  List.rev_map (fun name -> let s, i, n = Hashtbl.find tbl name in (name, s, i, n)) !order

let render_self_times ~title rows =
  let total = List.fold_left (fun acc (_, s, _, _) -> acc +. s) 0. rows in
  let body =
    List.map
      (fun (name, s, i, n) ->
        [ name; Printf.sprintf "%.3f" s; Printf.sprintf "%.1f" (100. *. s /. total);
          Printf.sprintf "%.3f" i; string_of_int n ])
      (List.sort (fun (_, a, _, _) (_, b, _, _) -> compare b a) rows)
  in
  Printf.sprintf "--- %s: self time by layer ---\n%s" title
    (Rd_util.Table.render
       ~headers:[ "layer"; "self s"; "%"; "inclusive s"; "spans" ]
       ~aligns:Rd_util.Table.[ Left; Right; Right; Right; Right ]
       (body @ [ [ "total"; Printf.sprintf "%.3f" total; "100.0"; ""; "" ] ]))

(* --- main ----------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 2004 in
  let traced = ref false and chrome = ref "" in
  Arg.parse
    [
      ("--seed", Arg.Set_int seed, "N master seed of the generated population (default 2004)");
      ("--traced", Arg.Set traced, " pass the Trace/Metrics sinks and time each layer");
      ("--chrome", Arg.Set_string chrome, "FILE write the Chrome trace (with --traced)");
    ]
    (fun w -> workload := w)
    "rdbench.exe (study|whatif|crosscheck) --seed N [--traced] [--chrome FILE]";
  if not (List.mem !workload [ "study"; "whatif"; "crosscheck" ]) then begin
    prerr_endline "rdbench: workload must be study, whatif or crosscheck";
    exit 2
  end;
  let workload = !workload and seed = !seed in
  let specs = specs_of workload ~seed in
  (* Set-up: generate the configuration text; keep the last copy. *)
  let setup_s = ref [] and nets = ref [] in
  for _ = 1 to setup_reps do
    nets := [];
    let n, dt = timed (fun () -> generate specs) in
    setup_s := dt :: !setup_s;
    nets := n
  done;
  let nets = !nets in
  let trace = if !traced then Some (T.create ()) else None in
  let metrics = if !traced then Some (M.create ()) else None in
  let ctx = { trace; metrics; pset = Hashtbl.create 32; failures = []; checks = (0, 0) } in
  let gc0 = Gc.quick_stat () and ps0 = Prefix_set.stats () in
  (* The pass's root span: its self time is the part of the pass no
     layer accounts for. *)
  let pass, wall_s =
    timed (fun () ->
        T.span ~cat:"pass" trace "unattributed" (fun () ->
            match workload with
            | "study" -> study ctx nets
            | "whatif" -> whatif ctx nets
            | _ -> crosscheck ctx nets))
  in
  let gc1 = Gc.quick_stat () and ps1 = Prefix_set.stats () in
  let pass_spans = match trace with Some t -> T.spans t | None -> [] in
  let attribution_counts, attribution_spans =
    match trace with
    | None -> ([], [])
    | Some t ->
      let counts = pass.attribute () in
      let n = List.length pass_spans in
      (counts, List.filteri (fun i _ -> i >= n) (T.spans t))
  in
  if !chrome <> "" then Option.iter (fun t -> T.to_file t !chrome) trace;
  let pass_rows = self_times pass_spans and attribution_rows = self_times attribution_spans in
  if !traced then begin
    print_string (render_self_times ~title:(workload ^ " pass") pass_rows);
    if attribution_rows <> [] then
      print_string (render_self_times ~title:(workload ^ " attribution phase") attribution_rows)
  end;
  let word_mb = float (Sys.word_size / 8) /. 1048576. in
  let counters =
    match metrics with
    | None -> []
    | Some m ->
      List.map (fun (k, v) -> (k, float v)) (M.snapshot m).counters
  in
  let pset =
    Hashtbl.fold (fun k (n, h, m) acc -> (k, [ n; h; m ]) :: acc) ctx.pset []
    |> List.sort compare
  in
  let fl l = J.List (List.map (fun x -> J.Float x) l) in
  let rows l =
    J.List
      (List.map
         (fun (name, self, incl, n) ->
           J.List [ J.String name; J.Float self; J.Float incl; J.Int n ])
         l)
  in
  let failures = List.rev ctx.failures in
  List.iter (fun f -> prerr_endline ("rdbench: check failed: " ^ f)) failures;
  print_endline
    (J.to_string
       (J.Obj
          ([
             ("workload", J.String workload);
             ("seed", J.Int seed);
             ("traced", J.Bool !traced);
             ("setup_s", fl (List.rev !setup_s));
             ("wall_s", J.Float wall_s);
             ("peak_heap_mb", J.Float (float gc1.top_heap_words *. word_mb));
             ( "ops",
               J.List
                 (List.map
                    (fun o -> J.List [ J.String o.op; J.Float o.ms; J.Bool o.ok ])
                    pass.ops) );
             ("failures", J.List (List.map (fun f -> J.String f) failures));
             ("checks", J.List [ J.Int (fst ctx.checks); J.Int (snd ctx.checks) ]);
             ("digests", J.Obj (List.map (fun (k, v) -> (k, J.String v)) pass.digests));
             ("gc.minor_mw", J.Float ((gc1.minor_words -. gc0.minor_words) /. 1e6));
             ("gc.major_collections", J.Int (gc1.major_collections - gc0.major_collections));
             ( "pset.total",
               J.List
                 [
                   J.Int (ps1.nodes - ps0.nodes);
                   J.Int (ps1.memo_hits - ps0.memo_hits);
                   J.Int (ps1.memo_misses - ps0.memo_misses);
                 ] );
             ( "pset",
               J.Obj (List.map (fun (k, l) -> (k, J.List (List.map (fun x -> J.Int x) l))) pset)
             );
             ( "counts",
               J.Obj
                 (List.map
                    (fun (k, v) -> (k, J.Float v))
                    (pass.counts @ counters @ attribution_counts)) );
             ("pass_layers", rows pass_rows);
             ("attribution_layers", rows attribution_rows);
           ]
          @ pass.extra)))
