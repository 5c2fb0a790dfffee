(** The one checkpoint-aware, cancellable sweep over the study
    population, and the four sweeps built on it.

    {!sweep} iterates the study work list ({!Population.wanted_specs})
    under {!Rd_util.Pool} supervision: a run-level {!Rd_util.Cancel}
    token (deadline or SIGINT) fails queued networks fast and stops
    in-flight ones at their next poll, an optional per-network
    [task_timeout] derives a child token clocking from that network's
    start, and every failure — including [Timed_out] — degrades to a
    per-network {!Population.failure} row, never an escaping exception.
    Every wanted spec yields exactly one result.

    With a {!Checkpoint} and a {!codec}, each completed network's result
    is persisted the moment it finishes; with [resume], the checkpoint
    is probed before computing and hits are replayed verbatim, which
    makes an interrupted-then-resumed report byte-identical to an
    uninterrupted one (store hit counters prove what was skipped).

    Each sweep is a per-network task plus a codec:
    - {!study}: {!Population.build_network}, persisted as {!Netstat} JSON;
    - {!crosscheck}: {!Rd_check.Crosscheck.run}, persisted as its report JSON;
    - {!whatif}: the shared {!Rd_core.Engine} with [jobs] pinned to 1,
      persisted as rendered row cells;
    - [rdna netlint --study]: analyze and {!Rd_core.Netlint.run_analysis}
      each generated network, with no checkpoint. *)

type 'a codec = { to_json : 'a -> Rd_util.Json.t; of_json : Rd_util.Json.t -> 'a option }
(** How a per-network result is persisted; [of_json] answers [None] on a
    payload it cannot read, which counts as a miss. *)

val sweep :
  ?trace:Rd_util.Trace.t -> ?metrics:Rd_util.Metrics.t -> ?faults:Rd_util.Fault.t ->
  ?cancel:Rd_util.Cancel.t -> ?task_timeout:float -> ?retries:int -> ?jobs:int ->
  ?checkpoint:Checkpoint.t -> ?resume:bool -> ?codec:'a codec -> ?only:int list ->
  stage:string -> salt:string list -> master_seed:int ->
  (Rd_util.Cancel.t option -> Population.spec -> 'a) ->
  (Population.spec * ('a, Population.failure) result) list
(** [sweep ~stage ~salt ~master_seed task] runs [task child spec] for
    every wanted spec on [jobs] pool workers, where [child] is the
    spec's own cancel token.  One [(spec, result)] per wanted spec, in
    net-id order.  [retries] (default 0) re-runs a failed network up to
    that many extra times; each terminal failure bumps the
    [network.degraded] counter.  [stage] and [salt] form the checkpoint
    key ({!Checkpoint.key}); the checkpoint is used only when a [codec]
    is given. *)

type study_item = {
  stat : Netstat.t;
  network : Population.network option;
      (** the full analysis when this network was built in-process;
          [None] when the stat was replayed from a checkpoint. *)
}

val study :
  ?trace:Rd_util.Trace.t -> ?metrics:Rd_util.Metrics.t -> ?faults:Rd_util.Fault.t ->
  ?cancel:Rd_util.Cancel.t -> ?task_timeout:float -> ?limits:Rd_util.Limits.t ->
  ?retries:int -> ?jobs:int -> ?checkpoint:Checkpoint.t -> ?resume:bool ->
  ?only:int list -> master_seed:int -> unit ->
  (Population.spec * (study_item, Population.failure) result) list
(** The supervised study build (stage [study.network]).  A
    zero-failure, zero-checkpoint run carries the same networks as
    {!Population.build}. *)

val crosscheck :
  ?limits:Rd_util.Limits.t -> ?invariants:string list -> ?trace:Rd_util.Trace.t ->
  ?metrics:Rd_util.Metrics.t -> ?faults:Rd_util.Fault.t -> ?cancel:Rd_util.Cancel.t ->
  ?task_timeout:float -> ?salt:string list -> ?retries:int -> ?jobs:int ->
  ?checkpoint:Checkpoint.t -> ?resume:bool -> ?only:int list -> master_seed:int ->
  unit ->
  (Population.spec * (Rd_check.Crosscheck.report, Population.failure) result) list
(** The supervised differential cross-check (stage [crosscheck.network]):
    per network, generate the configurations and
    {!Rd_check.Crosscheck.run} the oracle, or replay the checkpointed
    report.  [invariants] joins the resume key (a different invariant
    selection must miss); [salt] adds further key-relevant context,
    e.g. the fault spec string. *)

val whatif :
  ?metrics:Rd_util.Metrics.t -> ?trace:Rd_util.Trace.t -> ?faults:Rd_util.Fault.t ->
  ?cancel:Rd_util.Cancel.t -> ?task_timeout:float -> ?checkpoint:Checkpoint.t ->
  ?resume:bool -> ?only:int list -> master_seed:int -> unit ->
  string * Population.failure list
(** The checkpointing what-if sweep (stage [whatif.network]): one shared
    {!Rd_core.Engine} (necessarily sequential — [jobs] is pinned to 1 so
    scenario artifacts stay warm across networks), per-network scenario
    rows persisted as rendered table cells (wall-clock [seconds] are
    replayed from the checkpoint on resume).  Returns the rendered sweep
    report ({!Experiments.render_whatif} over {!Experiments.whatif_rows};
    the trailing engine cache-totals line reflects only the networks
    actually computed by this process) plus the per-network failures. *)
