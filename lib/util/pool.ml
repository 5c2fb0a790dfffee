(* Fixed-size domain worker pool.

   Tasks are closures pushed onto a mutex/condition-protected queue;
   [jobs] worker domains pop and run them.  [mapi] fans a list out in
   index chunks and reassembles results in input order, so parallel maps
   are observably identical to [List.mapi].  Worker domains mark
   themselves via a DLS flag; a parallel map issued from inside a worker
   runs sequentially instead of deadlocking on pool capacity.

   Robustness invariants: a worker never dies with the queue non-empty
   (it catches whatever escapes a task), and the map combinators keep
   their completion accounting in a [Fun.protect] finalizer, so an
   exception raised anywhere between task pickup and completion — the
   [pool.pickup] fault site simulates exactly that window — can delay a
   map but never deadlock its [all_done] wait.

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
  faults : Fault.t option;
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

let jobs t = t.size

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
    (* A raising task must not take the worker down with it: the map
       combinators do their own error capture, so anything reaching
       here is a raw [submit] task (or a recorder bug) — count it and
       keep serving the queue. *)
    (try task () with _ -> Metrics.incr t.metrics "pool.task_failures");
    worker_loop t
  end

let create ?jobs ?trace ?metrics ?faults () =
  let size = max 1 (match jobs with Some j -> j | None -> default_jobs ()) in
  let t =
    {
      size;
      mutex = Mutex.create ();
      work_available = Condition.create ();
      queue = Queue.create ();
      closed = false;
      domains = [];
      trace;
      metrics;
      faults;
      busy_us = 0.0;
      started = Trace.now ();
    }
  in
  t.domains <-
    List.init size (fun _ ->
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
  Mutex.lock t.mutex;
  if t.closed then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.push task t.queue;
  Condition.signal t.work_available;
  Mutex.unlock t.mutex

let shutdown t =
  Mutex.lock t.mutex;
  t.closed <- true;
  Condition.broadcast t.work_available;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- [];
  match t.metrics with
  | None -> ()
  | Some _ ->
    let elapsed_us = (Trace.now () -. t.started) *. 1e6 in
    Metrics.set t.metrics "pool.workers" (float_of_int t.size);
    if elapsed_us > 0.0 then
      Metrics.set t.metrics "pool.utilization"
        (t.busy_us /. (elapsed_us *. float_of_int t.size))

let with_pool ?jobs ?trace ?metrics ?faults f =
  let t = create ?jobs ?trace ?metrics ?faults () in
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

let failure_of ?(attempts = 1) ?(elapsed = 0.0) e bt =
  { exn = e; backtrace = bt; site = failure_site e; cause = cause_of_exn e; attempts; elapsed }

(* Run one item under supervision: catch, optionally retry at once, and
   report the terminal failure with its cause, site and total elapsed
   time.  [cancel] is polled before each attempt so work queued behind
   a tripped token fails fast instead of running. *)
let supervised ~retries ~metrics ?cancel f i x =
  let started = Trace.now () in
  let rec attempt k =
    match
      Cancel.check ~site:"pool.queued" cancel;
      f i x
    with
    | y -> Ok y
    | exception e ->
      let bt = Printexc.get_backtrace () in
      let fl = failure_of ~attempts:k ~elapsed:(Trace.now () -. started) e bt in
      if k <= retries && retryable fl.cause then begin
        Metrics.incr metrics "task.retried";
        attempt (k + 1)
      end
      else Error fl
  in
  attempt 1

(* Chunked fan-out shared by the fail-fast and supervised maps: [run]
   handles one chunk and must not raise.  Completion accounting lives in
   a finalizer so a raising [run] (it never should) still drains
   [all_done]. *)
let fan_out t ~n ~run =
  let m = Mutex.create () in
  let all_done = Condition.create () in
  let chunk = max 1 ((n + (t.size * 4) - 1) / (t.size * 4)) in
  let nchunks = (n + chunk - 1) / chunk in
  let remaining = ref nchunks in
  let rec enqueue start =
    if start < n then begin
      let stop = min n (start + chunk) in
      submit t (fun () ->
          Fun.protect
            ~finally:(fun () ->
              Mutex.lock m;
              decr remaining;
              if !remaining = 0 then Condition.signal all_done;
              Mutex.unlock m)
            (fun () -> run ~start ~stop));
      enqueue stop
    end
  in
  enqueue 0;
  Mutex.lock m;
  while !remaining > 0 do
    Condition.wait all_done m
  done;
  Mutex.unlock m

(* Tasks never outlive [mapi]: every chunk decrements [remaining] in its
   finalizer even when the user function (or an injected pickup fault)
   raises, and the caller sleeps on [all_done] until the count drains.
   The first exception (with its backtrace) wins; later chunks see it
   and skip their work. *)
let mapi t f l =
  let n = List.length l in
  if n = 0 then []
  else if t.size <= 1 || n = 1 || in_worker () then List.mapi f l
  else begin
    let input = Array.of_list l in
    let results = Array.make n None in
    let m = Mutex.create () in
    let error = ref None in
    fan_out t ~n ~run:(fun ~start ~stop ->
        try
          Fault.fault_point t.faults ~site:"pool.pickup";
          let poisoned = Mutex.protect m (fun () -> !error <> None) in
          if not poisoned then
            for i = start to stop - 1 do
              results.(i) <- Some (f i input.(i))
            done
        with e ->
          let bt = Printexc.get_raw_backtrace () in
          Mutex.protect m (fun () -> if !error = None then error := Some (e, bt)));
    (match !error with
     | Some (e, bt) -> Printexc.raise_with_backtrace e bt
     | None -> ());
    Array.to_list (Array.map Option.get results)
  end

let map t f l = mapi t (fun _ x -> f x) l

(* Supervised variant: no poisoning — every item always gets a result.
   One task per item (not per chunk), so a failed item that may retry
   is requeued behind the others instead of re-running in place.  The
   [pool.pickup] fault site fires per item here (it is per chunk in the
   fail-fast map), failing just that item. *)
let mapi_results ?(retries = 0) ?cancel t f l =
  let n = List.length l in
  if n = 0 then []
  else if t.size <= 1 || n = 1 || in_worker () then
    List.mapi (fun i x -> supervised ~retries ~metrics:t.metrics ?cancel f i x) l
  else begin
    let input = Array.of_list l in
    let results = Array.make n None in
    let m = Mutex.create () in
    let all_done = Condition.create () in
    let remaining = ref n in
    let finish i r =
      Mutex.lock m;
      results.(i) <- Some r;
      decr remaining;
      if !remaining = 0 then Condition.signal all_done;
      Mutex.unlock m
    in
    let rec run_item i ~attempt ~started () =
      let started = if attempt = 1 then Trace.now () else started in
      match
        Cancel.check ~site:"pool.queued" cancel;
        Fault.fault_point t.faults ~site:"pool.pickup";
        f i input.(i)
      with
      | y -> finish i (Ok y)
      | exception e ->
        let bt = Printexc.get_backtrace () in
        let fl = failure_of ~attempts:attempt ~elapsed:(Trace.now () -. started) e bt in
        if attempt <= retries && retryable fl.cause then begin
          Metrics.incr t.metrics "task.retried";
          submit t (run_item i ~attempt:(attempt + 1) ~started)
        end
        else finish i (Error fl)
    in
    Array.iteri (fun i _ -> submit t (run_item i ~attempt:1 ~started:0.0)) input;
    Mutex.lock m;
    while !remaining > 0 do
      Condition.wait all_done m
    done;
    Mutex.unlock m;
    Array.to_list (Array.map Option.get results)
  end

let map_results ?retries ?cancel t f l = mapi_results ?retries ?cancel t (fun _ x -> f x) l

let parallel_mapi ?jobs ?trace ?metrics ?faults f l =
  let size = max 1 (match jobs with Some j -> j | None -> default_jobs ()) in
  if size <= 1 || List.length l <= 1 || in_worker () then List.mapi f l
  else with_pool ~jobs:size ?trace ?metrics ?faults (fun t -> mapi t f l)

let parallel_map ?jobs ?trace ?metrics ?faults f l =
  parallel_mapi ?jobs ?trace ?metrics ?faults (fun _ x -> f x) l

let parallel_mapi_results ?jobs ?trace ?metrics ?faults ?cancel ?(retries = 0) f l =
  let size = max 1 (match jobs with Some j -> j | None -> default_jobs ()) in
  if size <= 1 || List.length l <= 1 || in_worker () then
    List.mapi (fun i x -> supervised ~retries ~metrics ?cancel f i x) l
  else
    with_pool ~jobs:size ?trace ?metrics ?faults (fun t -> mapi_results ~retries ?cancel t f l)

let parallel_map_results ?jobs ?trace ?metrics ?faults ?cancel ?retries f l =
  parallel_mapi_results ?jobs ?trace ?metrics ?faults ?cancel ?retries (fun _ x -> f x) l
