(** Regeneration of every table and figure in the paper's evaluation
    (Sec. V).  Each function runs the corresponding experiment at the
    given {!Exp.scale} and returns the rendered text panel.  Expected
    shapes are documented per experiment in DESIGN.md §3 and recorded
    against actual output in EXPERIMENTS.md.

    Every sweep evaluates its (x-point × scheme) cells through
    {!Ido_util.Pool.opt_map_list}, one pool task per cell: pass [?pool]
    to run the cells on a domain pool.
    Cells are independent (each boots a private machine) and results
    are reassembled in input order, so the rendered panels are
    identical to a serial run. *)

val fig5 : ?pool:Ido_util.Pool.t -> Exp.scale -> string
(** Memcached-like throughput vs thread count, insertion-intensive
    (50/50) and search-intensive (10/90) panels. *)

val fig6 : ?pool:Ido_util.Pool.t -> Exp.scale -> string
(** Redis-like throughput for small / medium / large key ranges. *)

val fig7 : ?pool:Ido_util.Pool.t -> Exp.scale -> string
(** Microbenchmark throughput vs thread count: stack, queue, ordered
    list, hash map. *)

val fig8 : ?pool:Ido_util.Pool.t -> Exp.scale -> string
(** Cumulative distributions of stores and live-in registers per
    dynamic idempotent region, for all six benchmarks. *)

val table1 : ?pool:Ido_util.Pool.t -> Exp.scale -> string
(** Recovery-time ratio (Atlas / iDO) at kill times 1–50 s, grounded
    in measured log-growth rates and actual recovery executions. *)

val fig9 : ?pool:Ido_util.Pool.t -> Exp.scale -> string
(** Throughput sensitivity to NVM write latency, 20–2000 ns. *)

val table2 : unit -> string
(** The qualitative system-property comparison. *)

val ablation : ?pool:Ido_util.Pool.t -> Exp.scale -> string
(** Beyond the paper's figures: throughput with each of iDO's design
    choices disabled (boundary elision, persist coalescing,
    single-fence indirect locking), and the volatile- vs
    nonvolatile-cache machine comparison the introduction argues
    about. *)

val all : ?pool:Ido_util.Pool.t -> Exp.scale -> (string * string) list
(** Every (name, panel) pair above, in paper order. *)
