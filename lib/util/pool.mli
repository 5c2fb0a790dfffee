(** Fixed-size OCaml 5 domain worker pool.

    A pool owns [jobs] worker domains that pop closures off a
    mutex/condition task queue.  The map combinators chunk the input by
    index and write results into a shared array, so output order always
    matches input order and a parallel map is observably identical to
    its sequential counterpart — only wall-clock changes.  This is what
    lets the parallel 31-network study (paper §2) promise byte-identical
    output.

    Two error disciplines are offered.  The fail-fast maps ({!map},
    {!mapi}, {!parallel_map}, {!parallel_mapi}) re-raise the first
    exception raised by the mapped function (with its backtrace) in the
    calling domain.  The supervised maps ({!map_results},
    {!mapi_results}, {!parallel_map_results}, {!parallel_mapi_results})
    isolate failures per item instead: every input produces an
    [(result, failure) result], optionally after bounded retry — the
    discipline the 31-network study uses so a
    single bad network cannot abort the other thirty.

    Either way the pool cannot deadlock on a failure: completion
    accounting runs in a finalizer, and a worker that catches an
    exception escaping a task (counted as [pool.task_failures]) keeps
    serving the queue.

    Worker domains are flagged via domain-local storage: a parallel map
    issued from inside a pool task runs sequentially rather than
    deadlocking on pool capacity, so nested parallelism degrades
    gracefully.

    Pools cooperate with the observability layer: pass [?trace] and/or
    [?metrics] to have every submitted task wrapped in a ["task"] span
    (category ["pool"]) and counted into [pool.tasks],
    [pool.queue_wait_ms], [pool.task_ms], [pool.workers], and
    [pool.utilization]; retries bump [task.retried].  Pass [?faults] to
    arm the ["pool.pickup"] {!Fault} site, which fires between task
    pickup and execution — the chaos suite's stand-in for a worker dying
    mid-task.  Workers flush their domain-local {!Trace} buffers before
    exiting, so spans recorded inside tasks always survive the pool
    join. *)

type t
(** A running pool of worker domains. *)

val default_jobs : unit -> int
(** The [RDNA_JOBS] environment variable if set to a positive integer,
    otherwise [Domain.recommended_domain_count ()]. *)

val in_worker : unit -> bool
(** [true] when called from inside a pool worker domain. *)

val create : ?jobs:int -> ?trace:Trace.t -> ?metrics:Metrics.t -> ?faults:Fault.t -> unit -> t
(** [create ~jobs ()] spawns [max 1 jobs] worker domains
    (default {!default_jobs}).  [?trace] and [?metrics] attach an
    observability recorder/registry to every task run on the pool;
    [?faults] arms the pool's injection sites. *)

val jobs : t -> int
(** Number of worker domains. *)

val submit : t -> (unit -> unit) -> unit
(** Enqueue a task.  A raw task that raises is dropped (its exception
    counted as [pool.task_failures]); the worker survives and keeps
    serving the queue.  Raises [Invalid_argument] after {!shutdown}. *)

val shutdown : t -> unit
(** Drain the queue, stop and join all workers, then publish the
    [pool.workers] and [pool.utilization] gauges when a metrics
    registry is attached.  Idempotent. *)

val with_pool :
  ?jobs:int -> ?trace:Trace.t -> ?metrics:Metrics.t -> ?faults:Fault.t -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool and always shuts it down. *)

(** {1 Fail-fast maps} *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map on an existing pool.  Falls back to
    [List.map] when the pool has one worker, the list has at most one
    element, or the caller is itself a pool worker. *)

val mapi : t -> (int -> 'a -> 'b) -> 'a list -> 'b list

val parallel_map :
  ?jobs:int -> ?trace:Trace.t -> ?metrics:Metrics.t -> ?faults:Fault.t ->
  ('a -> 'b) -> 'a list -> 'b list
(** One-shot convenience: create a pool, {!map}, shut down.  [~jobs:1]
    (or a singleton/empty list, or a nested call) short-circuits to
    [List.map] without spawning any domain. *)

val parallel_mapi :
  ?jobs:int -> ?trace:Trace.t -> ?metrics:Metrics.t -> ?faults:Fault.t ->
  (int -> 'a -> 'b) -> 'a list -> 'b list

(** {1 Supervised maps} *)

type cause =
  | Exn  (** an ordinary exception. *)
  | Fault of string  (** an injected {!Fault} fired at this site. *)
  | Budget of string  (** a {!Limits} budget tripped at this site. *)
  | Timed_out of Cancel.reason
      (** a {!Cancel} token tripped — deadline expiry or explicit stop.
          Timed-out items are never retried: the deadline stays expired,
          so a retry could only burn budget re-reaching the poll. *)

(** Classification of the terminal exception of a failed item. *)

type failure = {
  exn : exn;  (** the terminal exception, after any retries. *)
  backtrace : string;  (** its backtrace (empty when recording is off). *)
  site : string option;
      (** the {!Fault}/{!Limits}/{!Cancel} site that produced it, when
          known. *)
  cause : cause;  (** what kind of failure this was. *)
  attempts : int;  (** how many times the item was tried. *)
  elapsed : float;  (** seconds spent on the item across all attempts. *)
}
(** Why one input item failed. *)

val map_results :
  ?retries:int -> ?cancel:Cancel.t -> t -> ('a -> 'b) -> 'a list -> ('b, failure) result list
(** Order-preserving supervised map: every input yields [Ok] or a
    {!failure}; an exception in one item never affects the others.
    [retries] (default 0) re-runs a failed item up to that many extra
    times, counting [task.retried]; on a pool the retry is requeued
    behind the items still waiting.  [cancel] is polled (site
    ["pool.queued"]) before each item attempt, so once the token trips
    every not-yet-started item fails fast with a {!Timed_out} failure
    instead of running — the pool drains at poll speed. *)

val mapi_results :
  ?retries:int -> ?cancel:Cancel.t -> t -> (int -> 'a -> 'b) -> 'a list ->
  ('b, failure) result list

val parallel_map_results :
  ?jobs:int -> ?trace:Trace.t -> ?metrics:Metrics.t -> ?faults:Fault.t ->
  ?cancel:Cancel.t -> ?retries:int -> ('a -> 'b) -> 'a list -> ('b, failure) result list
(** One-shot supervised map: create a pool, {!map_results}, shut down,
    with the same sequential short-circuits as {!parallel_map}. *)

val parallel_mapi_results :
  ?jobs:int -> ?trace:Trace.t -> ?metrics:Metrics.t -> ?faults:Fault.t ->
  ?cancel:Cancel.t -> ?retries:int -> (int -> 'a -> 'b) -> 'a list ->
  ('b, failure) result list
