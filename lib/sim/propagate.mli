(** Route-propagation simulator over the routing process graph.

    Propagates concrete route records (with source protocol, tag, metric)
    along adjacency, redistribution, and selection edges to fixpoint.
    This answers the questions the paper says the process graph makes
    answerable (§3.1): how many routes each routing process must handle,
    and which destinations are reachable from a router under a given
    configuration.

    Rounds are delta-driven: each adjacency direction and each
    redistribution edge offers only the sender's routes installed since
    it last sent (DESIGN §13 argues the skipped re-offers are no-ops).
    Over a run an edge handles each install in its sender's RIB once, at
    a trie-depth cost to find it: O(edges x installs per process x 32)
    in place of O(rounds x edges x routes).  Each round also scans the
    RIB of every BGP process that configures aggregates. *)

open Rd_addr

type t = {
  graph : Rd_routing.Process_graph.t;
  proc_ribs : Rib.t array;  (** by pid. *)
  local_ribs : Rib.t array;  (** by router. *)
  router_ribs : Rib.t array;  (** by router. *)
  iterations : int;
  converged : bool;
      (** [false] when the round budget cut the fixpoint short — the RIBs
          are then a sound but possibly incomplete under-approximation. *)
}

val run :
  ?metrics:Rd_util.Metrics.t -> ?faults:Rd_util.Fault.t -> ?cancel:Rd_util.Cancel.t ->
  ?limits:Rd_util.Limits.t ->
  ?external_prefixes:Prefix.t list -> Rd_routing.Process_graph.t -> t
(** [external_prefixes] simulates the routes offered by external peers on
    every external BGP peering and IGP edge link (default: a single
    0.0.0.0/0).  [metrics] accumulates the [propagate.runs],
    [propagate.fixpoint_iterations], [propagate.routes_installed]
    (RIB-changing installs), and [propagate.redistributions] (new or
    changed routes offered across a redistribution edge; an unchanged
    route is offered once, not once per round) counters, flushed once
    per run.

    Rounds are budgeted by [limits.max_propagate_iterations] (default
    {!Rd_util.Limits.default}, the historical cap of 100): hitting the
    budget degrades to [converged = false] instead of spinning.  [cancel]
    is polled once per round with the same degrade-don't-raise
    discipline — a deadline mid-simulation yields the partial RIBs with
    [converged = false], never an escaping exception.  [faults]
    arms the ["propagate.fixpoint"] {!Rd_util.Fault} site, visited once
    per round. *)

val rib_of_process : t -> int -> Rib.t
(** Converged RIB of one routing process (by process id). *)

val rib_of_router : t -> int -> Rib.t
(** Converged router RIB (best routes across the router's processes). *)

val process_loads : t -> (int * int) list
(** (pid, RIB size) pairs, descending size — the per-process route load. *)

val total_routes : t -> int
(** Sum of every process RIB's size — the one-number route-load summary a
    what-if sweep reports per scenario (the quantity §6.2's OSPF-load
    arguments bound). *)

val instance_load :
  t -> Rd_routing.Instance.assignment -> int -> int * float
(** [(max, mean)] process-RIB size over an instance's members — the §6.2
    OSPF load prediction.  An instance with no member processes in the
    simulated graph loads to [(0, 0.)]. *)

val prefix_set_of_process : t -> int -> Prefix_set.t
(** The process RIB lowered to the set of destination prefixes it holds —
    the concrete counterpart of the static engine's per-instance route
    set. *)

val prefix_set_of_router : t -> int -> Prefix_set.t
(** The router RIB (post route selection) lowered to a prefix set. *)

val instance_prefix_set :
  t -> Rd_routing.Instance.assignment -> int -> Prefix_set.t
(** Union of {!prefix_set_of_process} over an instance's member
    processes — what the concrete simulation says the instance can reach,
    fed to the sim-subset-of-static cross-check oracle
    ([Rd_check.Crosscheck]). *)

val forwards_to : t -> router:int -> Ipv4.t -> Rib.route option
(** The route the router RIB selects for a destination. *)
