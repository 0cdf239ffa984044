(** Transient (volatile DRAM) memory.

    A growable array of 8-byte words, stored unboxed in one byte
    buffer that doubles when a store lands past its end.  Its entire
    contents vanish at a crash — the simulator simply discards the
    structure.  Used for the
    hybrid machine's DRAM portion (Fig. 1) and for transient mutexes
    under indirect locking (Sec. III-B). *)

type addr = int
type t

val create : ?initial:int -> unit -> t
val load : t -> addr -> int64
(** Words never stored read 0, at any address.
    Exported as the primitive {!load_into} is built on. *)

val store : t -> addr -> int64 -> unit
(** Grows the memory on demand; addresses must be non-negative. *)

val load_into : t -> addr -> Bytes.t -> int -> unit
(** [load_into t addr b off] writes [load t addr] into bytes
    [[off, off + 8)] of [b] in native byte order, boxing nothing: a
    load straight into a register file held as bytes. *)

val store_from : t -> addr -> Bytes.t -> int -> unit
(** [store_from t addr b off] stores the word in bytes [[off, off + 8)]
    of [b], boxing nothing. *)

val zero : t -> addr -> int -> unit
(** [zero t addr n] stores 0 into the [n] words from [addr] (a no-op
    when [n <= 0]), growing the memory as {!store} would. *)

val alloc : t -> int -> addr
(** Bump-allocate [n] fresh zeroed words and return their base. *)

val copy : t -> t
(** An independent memory with the same contents and allocation mark. *)
