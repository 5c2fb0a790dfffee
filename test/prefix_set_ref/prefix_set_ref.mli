(** Reference prefix sets: the original structural (non-hash-consed)
    implementation of {!Rd_addr.Prefix_set}, retained as executable
    reference semantics.

    Every operation rebuilds trie nodes and equality is a structural
    compare.  The qcheck agreement suite checks the hash-consed kernel
    against this module operation by operation, and the bench's reach
    gate uses it as the pre-kernel baseline when measuring the
    reachability fixpoint speedup.  This test-only library is not
    installed; production code uses {!Rd_addr.Prefix_set}. *)

open Rd_addr

type t = Empty | Full | Node of t * t
(** Exposed so tests can assert canonicity directly. *)

val empty : t
(** The empty set ([Empty]). *)

val full : t
(** The whole IPv4 space ([Full]). *)

val of_prefix : Prefix.t -> t
(** All addresses covered by one prefix. *)

val of_prefixes : Prefix.t list -> t
(** Union of the given prefixes. *)

val union : t -> t -> t
(** Structural union (allocates fresh nodes; no memoization). *)

val inter : t -> t -> t
(** Structural intersection. *)

val diff : t -> t -> t
(** [diff a b]: addresses in [a] but not [b]. *)

val complement : t -> t
(** All addresses not in the set. *)

val is_empty : t -> bool
(** O(1) by canonicity. *)

val equal : t -> t -> bool
(** Structural equality — the specification
    {!Rd_addr.Prefix_set.equal} must agree with. *)

val subset : t -> t -> bool
(** [subset a b]: [a] ⊆ [b], by structural descent. *)

val mem : Ipv4.t -> t -> bool
(** Single-address membership. *)

val to_prefixes : t -> Prefix.t list
(** Minimal disjoint covering prefixes in address order. *)

val count_addresses : t -> int
(** Number of addresses in the set. *)
