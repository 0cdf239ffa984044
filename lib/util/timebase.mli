(** Simulated time.

    Every clock in the simulator counts integer nanoseconds.  An OCaml
    [int] holds 63 bits, i.e. ~292 simulated years — ample for the
    50-second runs of Table I. *)

type ns = int
(** A duration or instant, in nanoseconds. *)

val us : int -> ns
(** The benchmark sizes its toy crash instant with it. *)

val ms : int -> ns
val s : int -> ns

val to_ms : ns -> float
