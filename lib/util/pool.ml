(* Fixed-size domain worker pool.

   Tasks are closures pushed onto a mutex/condition-protected queue;
   [jobs] worker domains pop and run them.  A map submits one task per
   input item and each task writes its outcome into the item's slot of
   a shared array, so results come back in input order and parallel
   maps are observably identical to [List.map].  Worker domains mark
   themselves via a DLS flag; a parallel map issued from inside a worker
   runs sequentially instead of deadlocking on pool capacity.

   Robustness invariant: every task fills its slot whatever the mapped
   function (or the [pool.pickup] fault site, which fires between task
   pickup and the call) raises, so a failure can delay a map but never
   deadlock its [all_done] wait; a worker also survives anything that
   escapes a task and keeps serving the queue.

   When a recorder/registry is attached, [submit] wraps each task to
   record a queue-wait histogram and a "task" span; workers flush their
   domain-local span buffers just before exiting so every span recorded
   inside the pool survives the join. *)

type t = {
  size : int;
  mutex : Mutex.t;
  work_available : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable closed : bool;
  mutable domains : unit Domain.t list;
  trace : Trace.t option;
  metrics : Metrics.t option;
  mutable busy_us : float; (* task wall-clock total; protected by [mutex] *)
  started : float;
}

let in_worker_key : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let in_worker () = Domain.DLS.get in_worker_key

let default_jobs () =
  match Sys.getenv_opt "RDNA_JOBS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 1 -> n
     | _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let rec worker_loop t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not t.closed do
    Condition.wait t.work_available t.mutex
  done;
  if Queue.is_empty t.queue then begin
    Mutex.unlock t.mutex;
    (* Hand-off point: merge this domain's span buffers into their
       recorders before the domain dies with them. *)
    Trace.flush_current_domain ()
  end
  else begin
    let task = Queue.pop t.queue in
    Mutex.unlock t.mutex;
    (* Map tasks capture their own errors, so anything reaching here is
       a recorder bug: count it and keep serving the queue. *)
    (try task () with _ -> Metrics.incr t.metrics "pool.task_failures");
    worker_loop t
  end

let create ~jobs ?trace ?metrics () =
  let t =
    {
      size = jobs;
      mutex = Mutex.create ();
      work_available = Condition.create ();
      queue = Queue.create ();
      closed = false;
      domains = [];
      trace;
      metrics;
      busy_us = 0.0;
      started = Trace.now ();
    }
  in
  t.domains <-
    List.init jobs (fun _ ->
        Domain.spawn (fun () ->
            Domain.DLS.set in_worker_key true;
            worker_loop t));
  t

let instrument t task =
  match (t.trace, t.metrics) with
  | None, None -> task
  | _ ->
    let enqueued = Trace.now () in
    fun () ->
      let start = Trace.now () in
      Metrics.incr t.metrics "pool.tasks";
      Metrics.observe t.metrics "pool.queue_wait_ms" ((start -. enqueued) *. 1e3);
      let h = Trace.begin_span ~cat:"pool" t.trace "task" in
      Fun.protect
        ~finally:(fun () ->
          Trace.end_span h;
          let dur = Trace.now () -. start in
          Metrics.observe t.metrics "pool.task_ms" (dur *. 1e3);
          Mutex.protect t.mutex (fun () -> t.busy_us <- t.busy_us +. (dur *. 1e6)))
        task

let submit t task =
  let task = instrument t task in
  Mutex.protect t.mutex (fun () ->
      Queue.push task t.queue;
      Condition.signal t.work_available)

let shutdown t =
  Mutex.protect t.mutex (fun () ->
      t.closed <- true;
      Condition.broadcast t.work_available);
  List.iter Domain.join t.domains;
  match t.metrics with
  | None -> ()
  | Some _ ->
    let elapsed_us = (Trace.now () -. t.started) *. 1e6 in
    Metrics.set t.metrics "pool.workers" (float_of_int t.size);
    if elapsed_us > 0.0 then
      Metrics.set t.metrics "pool.utilization"
        (t.busy_us /. (elapsed_us *. float_of_int t.size))

let with_pool ~jobs ?trace ?metrics f =
  let t = create ~jobs ?trace ?metrics () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* ------------------------------------------------------------ failures --- *)

type cause =
  | Exn
  | Fault of string
  | Budget of string
  | Timed_out of Cancel.reason

type failure = {
  exn : exn;
  backtrace : string;
  site : string option;
  cause : cause;
  attempts : int;
  elapsed : float;
}

let failure_site e =
  match Cancel.site_of_exn e with
  | Some _ as s -> s
  | None ->
    (match Fault.site_of_exn e with Some _ as s -> s | None -> Limits.site_of_exn e)

let cause_of_exn e =
  match Cancel.reason_of_exn e with
  | Some r -> Timed_out r
  | None ->
    (match e with
     | Fault.Injected (site, _) -> Fault site
     | Limits.Budget_exceeded { site; _ } -> Budget site
     | _ -> Exn)

(* A cancelled task is never retried: its deadline stays expired, so a
   retry can only burn budget re-reaching the same poll point. *)
let retryable = function Timed_out _ -> false | Exn | Fault _ | Budget _ -> true

(* ------------------------------------------------------------- fan-out --- *)

(* The one fan-out engine.  Each item runs as its own task through
   [schedule] ([submit] on a pool, or at once on the calling domain) and
   fills its slot with [Ok] or its terminal failure plus raw backtrace.
   A failed item that may retry is scheduled again — on a pool that
   requeues it behind the items still waiting.  [cancel] is polled
   before each attempt, so work queued behind a tripped token fails
   fast instead of running.  Under [fail_fast] an item is skipped (its
   slot stays [None]) when an item with a lower index has already
   failed: the lowest failing index always runs, so the first failure
   in input order is exactly the one [List.map] would raise. *)
let run_items ~schedule ~faults ~metrics ~retries ?cancel ~fail_fast f l =
  let input = Array.of_list l in
  let n = Array.length input in
  let slots = Array.make n None in
  let m = Mutex.create () in
  let all_done = Condition.create () in
  let remaining = ref n in
  let first_failed = ref n in
  let finish i slot =
    Mutex.protect m (fun () ->
        slots.(i) <- slot;
        (match slot with Some (Error _) -> first_failed := min !first_failed i | _ -> ());
        decr remaining;
        if !remaining = 0 then Condition.signal all_done)
  in
  let rec run_item i ~attempt ~started () =
    if fail_fast && Mutex.protect m (fun () -> !first_failed < i) then finish i None
    else
      let started = if attempt = 1 then Trace.now () else started in
      match
        Cancel.check ~site:"pool.queued" cancel;
        Fault.fault_point faults ~site:"pool.pickup";
        f input.(i)
      with
      | y -> finish i (Some (Ok y))
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        let fl =
          {
            exn = e;
            backtrace = Printexc.raw_backtrace_to_string bt;
            site = failure_site e;
            cause = cause_of_exn e;
            attempts = attempt;
            elapsed = Trace.now () -. started;
          }
        in
        if attempt <= retries && retryable fl.cause then begin
          Metrics.incr metrics "task.retried";
          schedule (run_item i ~attempt:(attempt + 1) ~started)
        end
        else finish i (Some (Error (fl, bt)))
  in
  Array.iteri (fun i _ -> schedule (run_item i ~attempt:1 ~started:0.0)) input;
  Mutex.protect m (fun () ->
      while !remaining > 0 do
        Condition.wait all_done m
      done);
  Array.to_list slots

(* Worker domains for a map over [l]: 1 (no pool) for one job, at most
   one item, or a call from inside a worker. *)
let pool_size jobs l =
  let size = match jobs with Some j -> j | None -> default_jobs () in
  if size <= 1 || List.length l <= 1 || in_worker () then 1 else size

let on_pool ~jobs ?trace ?metrics ?faults run =
  with_pool ~jobs ?trace ?metrics (fun t -> run ~schedule:(submit t) ~faults ~metrics)

let parallel_map ?jobs ?trace ?metrics ?faults f l =
  match pool_size jobs l with
  | 1 -> List.map f l
  | jobs ->
    let slots =
      on_pool ~jobs ?trace ?metrics ?faults (run_items ~retries:0 ~fail_fast:true f l)
    in
    List.iter
      (function Some (Error (fl, bt)) -> Printexc.raise_with_backtrace fl.exn bt | _ -> ())
      slots;
    List.map (fun slot -> Result.get_ok (Option.get slot)) slots

let parallel_map_results ?jobs ?trace ?metrics ?faults ?cancel ?(retries = 0) f l =
  let run = run_items ~retries ?cancel ~fail_fast:false f l in
  let slots =
    match pool_size jobs l with
    | 1 -> run ~schedule:(fun task -> task ()) ~faults:None ~metrics
    | jobs -> on_pool ~jobs ?trace ?metrics ?faults run
  in
  List.map (fun slot -> Result.map_error fst (Option.get slot)) slots
