(** One entry point per table/figure of the paper's evaluation.

    Each function renders a report whose rows/series correspond to what
    the paper prints, prefixed with the paper's reference values so shape
    can be compared directly. *)

val fig4 : Population.network -> string
(** Configuration-file size distribution of net5 (Figure 4). *)

val fig8 : master_seed:int -> Population.network list -> string
(** Network size distribution, study vs repository (Figure 8). *)

val table1_stats : Netstat.t list -> string
(** Intra/inter role counts per protocol (Table 1). *)

val table3_stats : Netstat.t list -> string
(** Interface-type census (Table 3). *)

val fig11_stats : Netstat.t list -> string
(** CDF of the percentage of packet-filter rules on internal links
    (Figure 11). *)

val sec7_stats : Netstat.t list -> string
(** Design classification and size statistics (§7.1, §7.2).

    These four aggregates read only {!Netstat.t} digests
    ([List.map Netstat.of_network nets] for a fresh build), so a
    checkpoint-replayed study report is byte-identical to a fresh one by
    construction. *)

val net5_case : Population.network -> string
(** The net5 case study: instance census, Figure 9/10 structure, the
    six-router redistribution cut (§5.1, §6.1). *)

val net15_case : Population.network -> string
(** The net15 case study: Table 2 policies, empty policy intersections,
    one-way reachability, OSPF load bound (§6.2, Figure 12). *)

val ablation_instances : Population.network list -> string
(** Instance flood-fill vs naive process-id grouping. *)

val ablation_blocks : Population.network -> string
(** Address-block joining threshold sweep. *)

val ablation_ospf_area : Population.network -> string
(** Strict vs ignored OSPF area matching in adjacency computation. *)

val ablation_external : Population.network list -> string
(** /30 rule alone vs /30 + next-hop heuristic for external-facing
    interface detection. *)

val scorecard : master_seed:int -> Population.network list -> string
(** Machine-checked shape verdicts for every reproduced table and figure:
    one PASS/FAIL row per criterion, and a summary line. *)

val default_scenarios : Population.network -> Rd_core.Whatif.scenario list
(** Deterministic per-network maintenance scenarios for what-if sweeps
    (§8.1): take out the last (edge) router, remove an internal link,
    and shut one interface — derived from the network's own topology, so
    every study network gets applicable scenarios without a hand-written
    sweep file. *)

val scenarios_of_analysis : Rd_core.Analysis.t -> Rd_core.Whatif.scenario list
(** {!default_scenarios} from a bare analysis — what the what-if sweeps
    use, since an engine-loaded network carries no {!Population.spec}. *)

val whatif_outcomes : Rd_core.Engine.t -> Population.spec -> Rd_core.Engine.outcome list
(** Generate one study network, load it into the engine and run its
    {!scenarios_of_analysis} — the per-network step of every what-if
    sweep over the study population, text or JSON. *)

val whatif_rows : string -> Rd_core.Engine.outcome list -> string list list
(** One rendered sweep-table row per outcome, first column the network
    label — the unit a what-if checkpoint entry stores. *)

val whatif_table : string list list -> string
(** The bare row table of {!whatif_rows} rows, with its column
    headers. *)

val render_whatif : engine:Rd_core.Engine.t -> string list list -> string
(** The sweep report: heading, {!whatif_table}, and the engine's
    cache-totals line. *)
