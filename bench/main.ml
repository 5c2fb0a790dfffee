(* Paper artifacts and the CI ratio gates.

   With no flag, regenerates every table and figure of the paper's
   evaluation from the synthetic 31-network study (the substitution for
   the proprietary configuration corpus; see DESIGN.md §2):

     Figure 4   net5 configuration size distribution
     Figure 8   network size distribution (study vs repository)
     Table 1    intra-/inter-domain protocol roles
     Table 3    interface-type census
     Figure 11  packet-filter placement CDF
     §7         design classification
     §5.1/§6.1  net5 case study (Figures 9, 10)
     §6.2       net15 case study (Figure 12, Table 2)
     plus the three ablations from DESIGN.md §5.

   [--gate reach|whatif|netlint] instead times one of the three ratio
   gates CI asserts, and [--json FILE] writes its result record.
   Per-layer self time, tracing overhead and end-to-end medians are
   measured by rdbench (rdbench/README.md), not here. *)

let master_seed = 2004

let line = String.make 78 '='

let section title = Printf.printf "\n%s\n%s\n%s\n" line title line

(* --------------------------------------------------------------- args --- *)

let gate = ref ""
let json_path = ref ""

let () =
  Arg.parse
    [
      ("--gate", Arg.Symbol ([ "reach"; "whatif"; "netlint" ], ( := ) gate),
       "  run one CI ratio gate instead of regenerating the paper artifacts");
      ("--json", Arg.Set_string json_path, "FILE  write the gate's result record as JSON to FILE");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument: " ^ a)))
    "bench [--gate reach|whatif|netlint [--json FILE]]";
  if !json_path <> "" && !gate = "" then begin
    prerr_endline "bench: --json needs --gate";
    exit 2
  end

let build_population () =
  Printf.printf "building the 31-network study population (seed %d)...\n%!" master_seed;
  Rd_study.Population.build ~master_seed ()

(* ---------------------------------------------------- paper artifacts --- *)

let run_experiments nets =
  section "PAPER EXPERIMENT REGENERATION";
  let routers =
    List.fold_left (fun acc (n : Rd_study.Population.network) -> acc + n.spec.n) 0 nets
  in
  Printf.printf "%d networks, %d routers analyzed\n%!" (List.length nets) routers;
  let find id = List.find (fun (n : Rd_study.Population.network) -> n.spec.net_id = id) nets in
  let net5 = find 5 and net15 = find 15 in
  let stats = List.map Rd_study.Netstat.of_network nets in
  section "Figure 4";
  print_string (Rd_study.Experiments.fig4 net5);
  section "Figure 8";
  print_string (Rd_study.Experiments.fig8 ~master_seed nets);
  section "Table 1";
  print_string (Rd_study.Experiments.table1_stats stats);
  section "Table 3";
  print_string (Rd_study.Experiments.table3_stats stats);
  section "Figure 11";
  print_string (Rd_study.Experiments.fig11_stats stats);
  section "Section 7";
  print_string (Rd_study.Experiments.sec7_stats stats);
  section "net5 case study (Figures 9 and 10)";
  print_string (Rd_study.Experiments.net5_case net5);
  section "net15 case study (Figure 12 and Table 2)";
  print_string (Rd_study.Experiments.net15_case net15);
  section "Ablation: instance computation";
  print_string
    (Rd_study.Experiments.ablation_instances
       (List.filter (fun (n : Rd_study.Population.network) -> n.spec.n <= 881) nets));
  section "Ablation: address-block threshold (net5)";
  print_string (Rd_study.Experiments.ablation_blocks net5);
  section "Ablation: external-facing detection";
  print_string
    (Rd_study.Experiments.ablation_external
       (List.filter (fun (n : Rd_study.Population.network) -> n.spec.net_id <= 15) nets));
  section "Ablation: strict OSPF area matching (on a multi-area backbone)";
  print_string (Rd_study.Experiments.ablation_ospf_area (find 2));
  section "Reproduction scorecard";
  print_string (Rd_study.Experiments.scorecard ~master_seed nets)

(* ---------------------------------------------------------- gate helpers --- *)

let time f =
  let t0 = Rd_util.Trace.now () in
  let r = f () in
  (r, Rd_util.Trace.now () -. t0)

let speedup_table ~first ~count rows =
  Rd_util.Table.print
    ~headers:[ first; count; "wall (s)"; "speedup" ]
    ~aligns:[ Rd_util.Table.Left; Rd_util.Table.Right; Rd_util.Table.Right; Rd_util.Table.Right ]
    rows

(* --------------------------------------------------------- reach gate --- *)

module Pref = Prefix_set_ref

let to_ref s = Pref.of_prefixes (Rd_addr.Prefix_set.to_prefixes s)

(* The pre-kernel reachability stage, reconstructed exactly: the legacy
   whole-edge-list Gauss–Seidel sweep over structural (non-hash-consed,
   non-memoized) prefix sets, the assoc-list [advertised] accumulation
   that lived inside [compute], and the per-query [external_routes_of]
   that re-folded [internal_space] on every call.  Origins and per-edge
   filter sets are converted outside the timed region (a gift to the
   baseline — the old code recomputed origins inside [compute]). *)
let ref_fixpoint (g : Rd_routing.Instance_graph.t) origins filters =
  let routes = Array.map Fun.id origins in
  let edges = Array.of_list g.edges in
  let changed = ref true in
  let iterations = ref 0 in
  while !changed do
    changed := false;
    incr iterations;
    Array.iteri
      (fun k (e : Rd_routing.Instance_graph.edge) ->
        let inflow =
          match e.src with
          | Rd_routing.Instance_graph.External _ -> Pref.full
          | Rd_routing.Instance_graph.Inst i -> routes.(i)
        in
        match e.dst with
        | Rd_routing.Instance_graph.External _ -> ()
        | Rd_routing.Instance_graph.Inst d ->
          let add = Pref.inter filters.(k) inflow in
          let merged = Pref.union routes.(d) add in
          if not (Pref.equal merged routes.(d)) then begin
            routes.(d) <- merged;
            changed := true
          end)
      edges
  done;
  (routes, !iterations)

(* One pre-kernel pass over a network: fixpoint + the advertised
   assoc-list fold + an [external_routes_of] query per instance, each
   re-folding the internal space like the old accessor did. *)
let ref_reach_pass (g : Rd_routing.Instance_graph.t) origins filters k =
  let routes, iterations = ref_fixpoint g origins filters in
  let _, advertised =
    List.fold_left
      (fun (j, acc) (e : Rd_routing.Instance_graph.edge) ->
        match (e.src, e.dst) with
        | Rd_routing.Instance_graph.Inst i, Rd_routing.Instance_graph.External a ->
          let out = Pref.inter filters.(j) routes.(i) in
          let cur = try List.assoc a acc with Not_found -> Pref.empty in
          (j + 1, (a, Pref.union cur out) :: List.remove_assoc a acc)
        | _ -> (j + 1, acc))
      (0, []) g.edges
  in
  ignore (Sys.opaque_identity advertised);
  for _ = 1 to k do
    Array.iteri
      (fun i _ ->
        let internal = Array.fold_left Pref.union Pref.empty origins in
        ignore (Sys.opaque_identity (Pref.diff routes.(i) internal)))
      routes
  done;
  (routes, iterations)

(* One kernel pass with the same query load against the new API. *)
let kernel_reach_pass g k =
  let r = Rd_reach.Reachability.compute g in
  for _ = 1 to k do
    Array.iteri
      (fun i _ ->
        ignore (Sys.opaque_identity (Rd_reach.Reachability.external_routes_of r i)))
      r.Rd_reach.Reachability.routes
  done;
  r

(* [reps] passes of [pass] over every input; the first pass's results. *)
let repeat reps pass inputs =
  let first = List.map pass inputs in
  for _ = 2 to reps do
    ignore (Sys.opaque_identity (List.map pass inputs))
  done;
  first

let reach_gate nets =
  section "Reachability fixpoint: hash-consed worklist vs pre-kernel reference";
  let graphs =
    List.map (fun (n : Rd_study.Population.network) -> n.analysis.Rd_core.Analysis.graph) nets
  in
  (* Reference inputs (structural sets) prepared outside the timed region.
     The start array is [initial_routes] — origins plus default-originate
     seeding — so the reference lands on the same fixpoint as [compute]. *)
  let ref_inputs =
    List.map
      (fun (g : Rd_routing.Instance_graph.t) ->
        let origins = Array.map to_ref (Rd_reach.Reachability.initial_routes g) in
        let filters =
          Array.of_list
            (List.map
               (fun (e : Rd_routing.Instance_graph.edge) ->
                 to_ref (Rd_policy.Route_filter.permitted e.filter))
               g.edges)
        in
        (g, origins, filters))
      graphs
  in
  (* The workload is the study's reachability stage: the pipeline
     recomputes reachability against each network's graph several times
     (experiments, scorecard checks, the metrics pass, what-if analyses),
     and after each fixpoint queries the external route space per
     instance — §6.2's OSPF load bound does exactly that.  [reps] models
     the repeated passes; [queries] the per-instance query fan-out.
     Measure the worklist first (cold caches in this domain), then the
     pre-kernel structural implementation. *)
  let reps = 3 and queries = 2 in
  Gc.compact ();
  let work_results, work_s =
    time (fun () -> repeat reps (fun g -> kernel_reach_pass g queries) graphs)
  in
  Gc.compact ();
  let ref_results, ref_s =
    time (fun () -> repeat reps (fun (g, o, f) -> ref_reach_pass g o f queries) ref_inputs)
  in
  (* Cross-check: the worklist landed on the same fixpoint as the
     structural sweep, on every network. *)
  List.iter2
    (fun (w : Rd_reach.Reachability.t) (ref_routes, _) ->
      Array.iteri
        (fun i s ->
          if not (Pref.equal (to_ref s) ref_routes.(i)) then
            failwith "worklist fixpoint diverged from the structural reference")
        w.routes)
    work_results ref_results;
  let sum_iters f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  let work_iters = sum_iters (fun (r : Rd_reach.Reachability.t) -> r.iterations) work_results in
  let ref_iters = sum_iters snd ref_results in
  let networks = List.length graphs in
  Printf.printf
    "workload: %d reachability passes over %d networks, %d external-route query sweeps per pass\n"
    reps networks queries;
  Rd_util.Table.print
    ~headers:[ "fixpoint variant"; "networks"; "iterations"; "wall (s)"; "speedup" ]
    ~aligns:
      [ Rd_util.Table.Left; Rd_util.Table.Right; Rd_util.Table.Right; Rd_util.Table.Right;
        Rd_util.Table.Right ]
    [
      [ "structural rounds (pre-kernel)"; string_of_int networks; string_of_int ref_iters;
        Printf.sprintf "%.3f" ref_s; "1.00x" ];
      [ "hash-consed worklist (cold start)"; string_of_int networks; string_of_int work_iters;
        Printf.sprintf "%.3f" work_s; Printf.sprintf "%.2fx" (ref_s /. work_s) ];
    ];
  Rd_util.Json.Obj
    [
      ("seed", Int master_seed);
      ("networks", Int networks);
      ("passes", Int reps);
      ("query_sweeps_per_pass", Int queries);
      ("reference_rounds_s", Float ref_s);
      ("worklist_s", Float work_s);
      ("speedup_worklist_vs_reference", Float (ref_s /. work_s));
      ("iterations_reference", Int ref_iters);
      ("iterations_worklist", Int work_iters);
    ]

(* -------------------------------------------------------- what-if gate --- *)

(* Cold vs warm what-if evaluation over the study population.

   Cold is the pre-engine cost of one scenario: parse and analyze the
   base network, run its baseline fixpoint, re-analyze with the change,
   run the scenario fixpoint — for every scenario, from scratch.

   The incremental pass evaluates the same scenarios through one shared
   [Rd_core.Engine]: the base parse/analysis/baseline fixpoint are
   computed once per network and probed thereafter, and each scenario's
   reachability is a delta restart seeded with the baseline solution.

   The warm pass repeats the sweep against the now-populated engine —
   the steady state of an operator iterating on a maintenance plan —
   where every artifact is a content-addressed probe.

   All three must render byte-identical diffs; a divergence fails the
   gate (this is the bench-level twin of the equivalence tests in
   test/test_reach.ml and test/test_ops.ml). *)
let whatif_gate nets =
  section "What-if sweeps: cold re-analysis vs incremental engine";
  let inputs =
    List.map
      (fun (n : Rd_study.Population.network) ->
        ( n,
          Rd_study.Population.generate_one n.spec,
          Rd_study.Experiments.default_scenarios n ))
      nets
  in
  let scenario_count =
    List.fold_left (fun acc (_, _, s) -> acc + List.length s) 0 inputs
  in
  Gc.compact ();
  let cold_results, cold_s =
    time (fun () ->
        List.map
          (fun ((n : Rd_study.Population.network), files, scenarios) ->
            List.map
              (fun (s : Rd_core.Whatif.scenario) ->
                let a = Rd_core.Analysis.analyze ~name:n.spec.label files in
                Rd_core.Whatif.render (Rd_core.Whatif.run a s.changes))
              scenarios)
          inputs)
  in
  let metrics = Rd_util.Metrics.create () in
  let engine = Rd_core.Engine.create ~metrics () in
  let run_engine () =
    List.map
      (fun ((n : Rd_study.Population.network), files, scenarios) ->
        let net = Rd_core.Engine.load engine ~name:n.spec.label files in
        List.map
          (fun (o : Rd_core.Engine.outcome) -> Rd_core.Whatif.render o.diff)
          (Rd_core.Engine.run_scenarios engine net scenarios))
      inputs
  in
  Gc.compact ();
  let incr_results, incr_s = time run_engine in
  Gc.compact ();
  let warm_results, warm_s = time run_engine in
  if incr_results <> cold_results then
    failwith "incremental what-if sweep diverged from cold re-analysis";
  if warm_results <> cold_results then
    failwith "warm what-if sweep diverged from cold re-analysis";
  Printf.printf "workload: %d scenarios over %d study networks, every diff rendered\n"
    scenario_count (List.length nets);
  speedup_table ~first:"sweep" ~count:"scenarios"
    [
      [ "cold (full re-analysis per scenario)"; string_of_int scenario_count;
        Printf.sprintf "%.3f" cold_s; "1.00x" ];
      [ "incremental (first engine pass)"; string_of_int scenario_count;
        Printf.sprintf "%.3f" incr_s; Printf.sprintf "%.2fx" (cold_s /. incr_s) ];
      [ "warm (repeat sweep, engine populated)"; string_of_int scenario_count;
        Printf.sprintf "%.3f" warm_s; Printf.sprintf "%.2fx" (cold_s /. warm_s) ];
    ];
  Printf.printf "diffs byte-identical across all three sweeps: true\n";
  let cache_stats = Rd_core.Engine.stats engine in
  List.iter
    (fun (name, (s : Rd_util.Cache.stats)) ->
      Printf.printf "cache.%s: %d hits, %d misses, %d evictions\n" name s.hits s.misses
        s.evictions)
    cache_stats;
  if cold_s /. warm_s < 5.0 then
    Printf.printf "WARNING: warm what-if speedup below the 5x target\n";
  Rd_util.Json.Obj
    [
      ("seed", Int master_seed);
      ("networks", Int (List.length nets));
      ("scenarios", Int scenario_count);
      ("cold_s", Float cold_s);
      ("incremental_s", Float incr_s);
      ("warm_s", Float warm_s);
      ("speedup_incremental_vs_cold", Float (cold_s /. incr_s));
      ("speedup_warm_vs_cold", Float (cold_s /. warm_s));
      ("identical", Bool true);
      ( "cache",
        Obj
          (List.map
             (fun (name, (s : Rd_util.Cache.stats)) ->
               ( name,
                 Rd_util.Json.Obj
                   [
                     ("hits", Int s.hits);
                     ("misses", Int s.misses);
                     ("evictions", Int s.evictions);
                     ("invalidations", Int s.invalidations);
                   ] ))
             cache_stats) );
    ]

(* -------------------------------------------------------- netlint gate --- *)

(* Cold vs warm network-wide lint.  Cold is the from-scratch cost per
   network: analyze the configurations and run every [Rd_core.Netlint]
   rule family.  Warm re-lints the very same [Analysis.t] values — the
   steady state of an operator re-running the linter while iterating —
   where the hash-consed prefix-set kernel and the filter lowerings
   memoized on physical AST identity absorb most of the work.  Both
   passes must agree finding-for-finding. *)
let netlint_gate nets =
  section "Network-wide lint: cold analyze+lint vs warm re-lint";
  let inputs =
    List.map
      (fun (n : Rd_study.Population.network) ->
        (n, Rd_study.Population.generate_one n.spec))
      nets
  in
  Gc.compact ();
  let cold, cold_s =
    time (fun () ->
        List.map
          (fun ((n : Rd_study.Population.network), files) ->
            let a = Rd_core.Analysis.analyze ~name:n.spec.label files in
            (a, Rd_core.Netlint.run_analysis a))
          inputs)
  in
  Gc.compact ();
  let warm_reports, warm_s =
    time (fun () -> List.map (fun (a, _) -> Rd_core.Netlint.run_analysis a) cold)
  in
  let cold_reports = List.map snd cold in
  if
    List.map (fun (r : Rd_core.Netlint.report) -> r.findings) cold_reports
    <> List.map (fun (r : Rd_core.Netlint.report) -> r.findings) warm_reports
  then failwith "warm re-lint diverged from the cold pass";
  let errors, warnings, infos = Rd_core.Netlint.counts cold_reports in
  Printf.printf "workload: %d study networks, %d errors, %d warnings, %d infos\n"
    (List.length nets) errors warnings infos;
  let speedup = cold_s /. warm_s in
  speedup_table ~first:"pass" ~count:"networks"
    [
      [ "cold (analyze + lint)"; string_of_int (List.length nets);
        Printf.sprintf "%.3f" cold_s; "1.00x" ];
      [ "warm (re-lint analyzed networks)"; string_of_int (List.length nets);
        Printf.sprintf "%.3f" warm_s; Printf.sprintf "%.2fx" speedup ];
    ];
  Printf.printf "findings identical across both passes: true\n";
  if speedup < 3.0 then
    Printf.printf "WARNING: warm netlint speedup below the 3x target\n";
  Rd_util.Json.Obj
    [
      ("seed", Int master_seed);
      ("networks", Int (List.length nets));
      ("errors", Int errors);
      ("warnings", Int warnings);
      ("infos", Int infos);
      ("cold_s", Float cold_s);
      ("warm_s", Float warm_s);
      ("speedup_warm_vs_cold", Float speedup);
      ("identical", Bool true);
    ]

let () =
  let nets = build_population () in
  let run timed =
    let result = timed nets in
    if !json_path <> "" then begin
      Rd_util.Json.to_file !json_path result;
      Printf.printf "%s gate json written to %s\n" !gate !json_path
    end
  in
  match !gate with
  | "reach" -> run reach_gate
  | "whatif" -> run whatif_gate
  | "netlint" -> run netlint_gate
  | _ -> run_experiments nets
