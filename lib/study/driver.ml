module J = Rd_util.Json

type 'a codec = { to_json : 'a -> J.t; of_json : J.t -> 'a option }

let sweep ?trace ?metrics ?faults ?cancel ?task_timeout ?(retries = 0) ?jobs ?checkpoint
    ?(resume = false) ?codec ?only ~stage ~salt ~master_seed task =
  let wanted = Population.wanted_specs ?only ~master_seed () in
  (* A [task_timeout] clocks from the moment the network's work starts
     (this runs inside the pool task), while a process-level deadline
     or SIGINT on [cancel] reaches every child through the parent
     chain. *)
  let compute spec =
    let child =
      match (cancel, task_timeout) with
      | None, None -> None
      | Some c, d -> Some (Rd_util.Cancel.child ?deadline:d c)
      | None, (Some _ as d) -> Some (Rd_util.Cancel.create ?deadline:d ())
    in
    task child spec
  in
  let run spec =
    match (checkpoint, codec) with
    | Some ck, Some codec -> (
      let key = Checkpoint.key ~stage ~salt spec in
      match if resume then Option.bind (Checkpoint.find ck key) codec.of_json else None with
      | Some v -> v
      | None ->
        let v = compute spec in
        Checkpoint.save ck key (codec.to_json v);
        v)
    | _ -> compute spec
  in
  let results =
    Rd_util.Pool.parallel_map_results ?jobs ?trace ?metrics ?faults ?cancel ~retries run wanted
  in
  List.map2
    (fun (spec : Population.spec) r ->
      ( spec,
        Result.map_error
          (fun failure ->
            Rd_util.Metrics.incr metrics "network.degraded";
            { Population.network = spec.label; routers = spec.n; failure })
          r ))
    wanted results

(* --- study -------------------------------------------------------------- *)

type study_item = { stat : Netstat.t; network : Population.network option }

let study ?trace ?metrics ?faults ?cancel ?task_timeout ?limits ?retries ?jobs ?checkpoint
    ?resume ?only ~master_seed () =
  let codec =
    {
      to_json = (fun i -> Netstat.to_json i.stat);
      of_json = (fun j -> Option.map (fun stat -> { stat; network = None }) (Netstat.of_json j));
    }
  in
  sweep ?trace ?metrics ?faults ?cancel ?task_timeout ?retries ?jobs ?checkpoint ?resume ~codec
    ?only ~stage:"study.network" ~salt:[] ~master_seed (fun cancel spec ->
      let network =
        Population.build_network ?trace ?metrics ?jobs ?faults ?cancel ?limits spec
      in
      { stat = Netstat.of_network network; network = Some network })

(* --- crosscheck --------------------------------------------------------- *)

let crosscheck ?limits ?invariants ?trace ?metrics ?faults ?cancel ?task_timeout
    ?(salt = []) ?retries ?jobs ?checkpoint ?resume ?only ~master_seed () =
  let salt =
    (match invariants with
     | None -> []
     | Some l -> [ "invariants=" ^ String.concat "," l ])
    @ salt
  in
  let codec =
    {
      to_json = Rd_check.Crosscheck.report_to_json;
      of_json = Rd_check.Crosscheck.report_of_json;
    }
  in
  sweep ?trace ?metrics ?faults ?cancel ?task_timeout ?retries ?jobs ?checkpoint ?resume ~codec
    ?only ~stage:"crosscheck.network" ~salt ~master_seed
    (fun cancel (spec : Population.spec) ->
      Rd_check.Crosscheck.run ?limits ?cancel ?faults ?invariants ~name:spec.label
        (Population.generate_one spec))

(* --- whatif ------------------------------------------------------------- *)

let rows_to_json rows =
  J.Obj
    [
      ( "rows",
        J.List (List.map (fun row -> J.List (List.map (fun c -> J.String c) row)) rows) );
    ]

let rows_of_json j =
  let cell = function J.String s -> Some s | _ -> None in
  let row = function
    | J.List cells ->
      List.fold_right
        (fun c acc -> Option.bind acc (fun acc -> Option.map (fun c -> c :: acc) (cell c)))
        cells (Some [])
    | _ -> None
  in
  match J.member "rows" j with
  | Some (J.List rows) ->
    List.fold_right
      (fun r acc -> Option.bind acc (fun acc -> Option.map (fun r -> r :: acc) (row r)))
      rows (Some [])
  | _ -> None

let whatif ?metrics ?trace ?faults ?cancel ?task_timeout ?checkpoint ?resume ?only
    ~master_seed () =
  let engine = Rd_core.Engine.create ?metrics ?trace ?cancel () in
  (* One shared engine means one worker: the sweep's whole point is that
     later networks probe artifacts the earlier ones warmed. *)
  let results =
    sweep ?trace ?metrics ?faults ?cancel ?task_timeout ~jobs:1 ?checkpoint ?resume
      ~codec:{ to_json = rows_to_json; of_json = rows_of_json }
      ?only ~stage:"whatif.network" ~salt:[] ~master_seed
      (fun tok (spec : Population.spec) ->
        let eng = Rd_core.Engine.with_cancel engine tok in
        Rd_util.Fault.fault_point faults ~site:"whatif.network" ~key:spec.label;
        Rd_util.Cancel.check ~site:"whatif.network" tok;
        Experiments.whatif_rows spec.label (Experiments.whatif_outcomes eng spec))
  in
  let rows, failures = Population.partition (List.map snd results) in
  (Experiments.render_whatif ~engine (List.concat rows), failures)
