open Rd_gen

type spec = {
  net_id : int;
  label : string;
  arch : Archetype.t;
  n : int;
  use_bgp : bool;
  use_filters : bool;
  seed : int;
}

(* (arch, n, use_bgp, use_filters) in net-id order; net5 and net15 are the
   paper's case studies. *)
let layout : (Archetype.t * int * bool * bool) list =
  [
    (Enterprise, 47, true, true);
    (Backbone, 450, true, true);
    (Hub_spoke, 31, true, true);
    (Igp_only, 6, false, true);
    (Compartment, 881, true, true);
    (* net5 *)
    (Enterprise, 19, true, true);
    (Tier2, 210, true, true);
    (Hub_spoke, 36, true, false);
    (Enterprise, 101, true, true);
    (Igp_only, 4, false, false);
    (Backbone, 520, true, true);
    (Hub_spoke, 12, true, false);
    (Compartment, 28, true, true);
    (Enterprise, 33, true, true);
    (Restricted, 79, true, true);
    (* net15 *)
    (Hub_spoke, 1750, true, true);
    (Backbone, 590, true, true);
    (Hub_spoke, 17, true, true);
    (Enterprise, 60, true, true);
    (Compartment, 55, true, true);
    (Tier2, 760, true, true);
    (Hub_spoke, 22, true, true);
    (Enterprise, 75, true, true);
    (Restricted, 34, true, true);
    (Backbone, 600, true, true);
    (Hub_spoke, 9, false, true);
    (Compartment, 36, true, true);
    (Tier2, 1430, true, true);
    (Hub_spoke, 44, true, true);
    (Enterprise, 24, true, true);
    (Hub_spoke, 72, true, true);
  ]

let specs ~master_seed =
  List.mapi
    (fun i (arch, n, use_bgp, use_filters) ->
      let net_id = i + 1 in
      {
        net_id;
        label = Printf.sprintf "net%d" net_id;
        arch;
        n;
        use_bgp;
        use_filters;
        seed = master_seed + (1009 * net_id);
      })
    layout

let generate_one spec =
  let net =
    Archetype.generate spec.arch ~seed:spec.seed ~n:spec.n ~use_bgp:spec.use_bgp
      ~use_filters:spec.use_filters ~index:spec.net_id ()
  in
  (* Anonymized file names, as in the paper's data set. *)
  List.mapi
    (fun i (_, text) -> (Printf.sprintf "config%d" (i + 1), text))
    (Builder.to_texts net)

type network = { spec : spec; analysis : Rd_core.Analysis.t }

let build_network ?trace ?metrics ?jobs ?faults ?cancel ?limits spec =
  let files =
    Rd_util.Trace.span ~cat:"stage"
      ~args:[ ("network", Rd_util.Trace.String spec.label) ]
      trace "generate"
      (fun () -> generate_one spec)
  in
  Rd_util.Fault.fault_point faults ~site:"study.network" ~key:spec.label;
  Rd_util.Cancel.check ~site:"study.network" cancel;
  {
    spec;
    analysis =
      Rd_core.Analysis.analyze ?trace ?metrics ?jobs ?faults ?cancel ?limits
        ~name:spec.label files;
  }

let wanted_specs ?only ~master_seed () =
  let all = specs ~master_seed in
  match only with
  | None -> all
  | Some ids -> List.filter (fun s -> List.mem s.net_id ids) all

(* Each network is an independent, per-spec-seeded unit, so the
   population maps across the domain pool.  Inside a pool worker the
   per-network parse fan-out degrades to sequential (nested-pool
   guard), keeping the domain count bounded by [jobs]. *)
let build ?only ?trace ?metrics ?jobs ?faults ?limits ~master_seed () =
  Rd_util.Pool.parallel_map ?jobs ?trace ?metrics ?faults
    (build_network ?trace ?metrics ?jobs ?faults ?limits)
    (wanted_specs ?only ~master_seed ())

type failure = { network : string; routers : int; failure : Rd_util.Pool.failure }

let partition results =
  List.partition_map
    (function Ok n -> Either.Left n | Error f -> Either.Right f)
    results

let render_failures ~total failures =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "--- failed networks (%d of %d) ---\n" (List.length failures) total);
  let rows =
    List.map
      (fun f ->
        [
          f.network;
          string_of_int f.routers;
          Option.value ~default:"-" f.failure.site;
          Printexc.to_string f.failure.exn;
        ])
      failures
  in
  Buffer.add_string buf
    (Rd_util.Table.render
       ~headers:[ "network"; "routers"; "site"; "error" ]
       ~aligns:
         [ Rd_util.Table.Left; Rd_util.Table.Right; Rd_util.Table.Left; Rd_util.Table.Left ]
       rows);
  Buffer.contents buf

let failures_to_json failures =
  Rd_util.Json.List
    (List.map
       (fun f ->
         Rd_util.Json.Obj
           [
             ("network", String f.network);
             ("routers", Int f.routers);
             ("site", match f.failure.site with Some s -> String s | None -> Null);
             ("error", String (Printexc.to_string f.failure.exn));
           ])
       failures)

let repository_sizes ~master_seed ~count =
  let rng = Rd_util.Prng.create (master_seed + 777) in
  List.init count (fun _ ->
      min 4000 (Rd_util.Prng.pareto_int rng ~alpha:1.05 ~xmin:2))

let total_routers ~master_seed =
  List.fold_left (fun acc s -> acc + s.n) 0 (specs ~master_seed)
