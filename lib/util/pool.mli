(** OCaml 5 domain worker pool behind two order-preserving maps.

    A map over more than one item with more than one job spawns [jobs]
    worker domains that pop tasks off a mutex/condition queue, one task
    per input item; each task writes its result into the item's slot of
    a shared array, so output order always matches input order and a
    parallel map is observably identical to its sequential counterpart
    — only wall-clock changes.  This is what lets the parallel
    31-network study (paper §2) promise byte-identical output.  One job,
    at most one item, or a call from inside a pool worker short-circuits
    to a sequential map without spawning any domain, so nested
    parallelism degrades gracefully instead of deadlocking on pool
    capacity.

    Both maps run on one per-item engine and differ only in what they
    do with failures.  {!parallel_map_results} is supervised: every
    input yields an [(result, failure) result], optionally after bounded
    retry — the discipline the 31-network study uses so a single bad
    network cannot abort the other thirty.  {!parallel_map} is
    fail-fast: once an item fails, items with a higher index that have
    not started are skipped, and the first failure in input order is
    re-raised (with its backtrace) in the calling domain — exactly the
    exception [List.map] would raise, whatever the job count.

    Either way the pool cannot deadlock on a failure: every task fills
    its slot whatever it raises.  Pass [?trace] and/or [?metrics] to
    have every task wrapped in a ["task"] span (category ["pool"]) and
    counted into [pool.tasks], [pool.queue_wait_ms], [pool.task_ms],
    [pool.workers], and [pool.utilization]; retries bump
    [task.retried].  Pass [?faults] to arm the ["pool.pickup"] {!Fault}
    site, which fires per item between task pickup and the call — the
    chaos suite's stand-in for a worker dying mid-task.  Workers flush
    their domain-local {!Trace} buffers before exiting, so spans
    recorded inside tasks always survive the pool join. *)

val default_jobs : unit -> int
(** The [RDNA_JOBS] environment variable if set to a positive integer,
    otherwise [Domain.recommended_domain_count ()]. *)

val in_worker : unit -> bool
(** [true] when called from inside a pool worker domain. *)

val parallel_map :
  ?jobs:int -> ?trace:Trace.t -> ?metrics:Metrics.t -> ?faults:Fault.t ->
  ('a -> 'b) -> 'a list -> 'b list
(** Fail-fast order-preserving map on a one-shot pool of [jobs] workers
    (default {!default_jobs}).  [~jobs:1] (or a singleton/empty list, or
    a nested call) is [List.map] itself. *)

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

val parallel_map_results :
  ?jobs:int -> ?trace:Trace.t -> ?metrics:Metrics.t -> ?faults:Fault.t ->
  ?cancel:Cancel.t -> ?retries:int -> ('a -> 'b) -> 'a list -> ('b, failure) result list
(** Supervised order-preserving map, with the same pool and sequential
    short-circuits as {!parallel_map}: every input yields [Ok] or a
    {!failure}; an exception in one item never affects the others.
    [retries] (default 0) re-runs a failed item up to that many extra
    times, counting [task.retried]; on a pool the retry is requeued
    behind the items still waiting.  [cancel] is polled (site
    ["pool.queued"]) before each item attempt, so once the token trips
    every not-yet-started item fails fast with a {!Timed_out} failure
    instead of running — the pool drains at poll speed. *)
