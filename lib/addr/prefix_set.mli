(** Sets of IPv4 addresses represented as hash-consed canonical binary
    tries of prefixes.

    The trie shape is canonical (a node never has two [Empty] or two
    [Full] children), so two sets are semantically equal iff their tries
    have the same shape — this is the workhorse for reasoning about
    routing policies, e.g. the paper's net15 result that the route sets
    admitted by policies on opposite sides of the network have empty
    intersection (A2 ∩ A5 = ∅, §6.2).

    On top of canonicity the module hash-conses nodes per domain and
    memoizes {!union}/{!inter}/{!diff}/{!subset}, so within one domain
    {!equal} is an O(1) id comparison and repeated set algebra over the
    same operands costs one cache probe (see DESIGN.md §12).  Values are
    immutable and safe to share across {!Rd_util.Pool} worker domains;
    sets that crossed a domain boundary compare via a structural
    fallback, so semantic equality is never lost — only sharing.

    The original structural implementation lives on in the test suite
    as the executable reference semantics, and the suite checks this
    kernel against it on random sets. *)

type t
(** An immutable set of IPv4 addresses. *)

val empty : t
(** The empty set. *)

val full : t
(** The whole IPv4 space. *)

val of_prefix : Prefix.t -> t
(** All addresses covered by one prefix. *)

val of_prefixes : Prefix.t list -> t
(** Union of the given prefixes (overlaps and duplicates are fine).
    Built in bulk: one descent over the address bits that splits the
    list by one bit per level, so it allocates only the nodes of the
    result and does no memo traffic.  Prefer it to folding {!union}
    over one-prefix sets.  The result equals the fold semantically and,
    within one domain, physically (see DESIGN.md §12). *)

val singleton : Ipv4.t -> t
(** A single host address (a /32). *)

val union : t -> t -> t
(** Set union.  Memoized; returns an operand physically when the other
    side adds nothing. *)

val inter : t -> t -> t
(** Set intersection.  Memoized. *)

val diff : t -> t -> t
(** [diff a b]: addresses in [a] but not [b].  Memoized. *)

val complement : t -> t
(** All addresses not in the set. *)

val remove : Prefix.t -> t -> t
(** [remove p s]: [diff s (of_prefix p)]. *)

val is_empty : t -> bool
(** O(1) thanks to canonicity: only the [Empty] node is empty. *)

val is_full : t -> bool
(** O(1): only the [Full] node covers the whole space. *)

val equal : t -> t -> bool
(** Semantic equality.  O(1) when hash-consing handed both sides the
    same node (the common case within one domain — an unchanged union
    returns its operand); otherwise a structural descent that
    short-circuits on shared subtrees.  Matching node ids only ever
    decide positively: values imported across a {!Rd_util.Pool} domain
    boundary (or rebuilt after a cache reset) may duplicate a local
    shape under a fresh id, and still compare equal. *)

val subset : t -> t -> bool
(** [subset a b]: [a] ⊆ [b].  Memoized per operand pair. *)

val mem : Ipv4.t -> t -> bool
(** Single-address membership: one trie descent, no allocation. *)

val mem_prefix : Prefix.t -> t -> bool
(** Whole prefix covered. *)

val overlaps : t -> t -> bool
(** [overlaps a b]: the intersection is non-empty (without building
    it when a shared subtree answers early). *)

val to_prefixes : t -> Prefix.t list
(** Minimal list of disjoint prefixes covering exactly the set, in address
    order. *)

val count_addresses : t -> int
(** Number of addresses in the set (beware: can be [2^32]). *)

val count_subtree : depth:int -> t -> int
(** [count_subtree ~depth s] counts the addresses of a subtree rooted
    [depth] bits down the trie (a [Full] subtree there covers
    [2^(32-depth)] addresses).  Memoized per (node, depth); address-block
    recovery ({!Rd_addrspace.Blocks}) calls this against one shared
    "used" set for every candidate supernet. *)

type view = Empty_v | Full_v | Split_v of t * t

val view : t -> view
(** Structural view of the canonical trie: either the set is empty, or it
    covers the whole (sub)space, or it splits into the zero-bit and
    one-bit halves.  Lets algorithms walk the trie in lockstep with their
    own recursion without re-intersecting. *)

type stats = { nodes : int; memo_hits : int; memo_misses : int; resets : int }

val stats : unit -> stats
(** Cumulative kernel counters summed over every domain that touched the
    kernel since program start: hash-consed nodes allocated, memo cache
    hits/misses across all memoized operations, and whole-table resets
    (a hashcons or memo table discarded after outgrowing its bound — a
    nonzero delta means the caches thrashed).  Reads of other domains'
    counters are unsynchronized (advisory numbers for metrics and
    benches — surfaced as the [pset.nodes]/[pset.memo_hits]/
    [pset.memo_misses]/[pset.resets] counters by
    {!Rd_reach.Reachability.compute} and the bench harness). *)

val pp : Format.formatter -> t -> unit
(** Prints the covering prefixes of {!to_prefixes}, comma-separated
    ([<empty>]/[<full>] for the extremes). *)
