(** Deterministic pseudo-random number generation.

    All randomness in the simulator flows through this module so that
    every experiment is reproducible from a single integer seed.  The
    generator is SplitMix64 (Steele et al., OOPSLA 2014): tiny state,
    full 64-bit output, and a cheap [split] that derives independent
    streams — one per simulated thread. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator from [seed]. *)

val split : t -> t
(** [split t] derives a new generator whose stream is independent of
    the remainder of [t]'s stream.  Both may be used afterwards. *)

val copy : t -> t
(** [copy t] duplicates the current state (same future stream). *)

val assign : into:t -> t -> unit
(** [assign ~into src] overwrites [into]'s state with [src]'s, so
    [into]'s future stream equals [src]'s.  Lets arena-reuse paths
    re-seed a generator in place instead of allocating a new one. *)

val mix64 : int64 -> int64
(** The SplitMix64 output function of a single state: [k] advanced by
    one golden-gamma step, then finalized.  A stateless hash whose
    avalanche decorrelates inputs that differ by one bit. *)

val next64 : t -> int64
(** Next raw 64-bit value.
    Exported as the primitive every draw is built on. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be > 0. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val chance : t -> float -> bool
(** [chance t p] is true with probability [p]. *)
