(** Rendering, JSON persistence, and SLA accounting of serve cells.

    The JSON layout (field order, float formatting) is stable: CI
    [cmp]s [BENCH_serve.json] files produced at different [-j].  The
    elastic-serving fields (fault label, replay/failover counters,
    unavailability windows) bumped the document format to 2. *)

val cell_json : Serve.cell -> string
(** One cell as a single-line JSON object, including per-group
    detail.
    Exported as the primitive {!to_json} is built on. *)

val to_json : Serve.cell list -> string
(** The [BENCH_serve.json] document: [{"type":"serve","format":2,
    "cells":[...]}]. *)

val row_label : Serve.cell -> string
(** The cell label with the fault scenario appended
    (["kvcache50/ido s4r1 b8 [storm2]"]); the bare historical label
    when the cell ran fault-free.
    The benchmark labels its cells with it. *)

val render : Serve.cell list -> string
(** Human-readable boxed table: one row per (scheme x topology x
    batch x fault) cell with throughput, latency percentiles, replay
    and stall accounting. *)

val sla_verdicts : budget_ns:int -> Serve.cell list -> string
(** All verdict lines, newline-joined. *)
