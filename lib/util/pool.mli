(** A fixed-size pool of worker domains for independent deterministic
    tasks, fed from one shared task queue.

    The crash-matrix explorer, figure sweeps, fuzz campaigns and serve
    shards decompose into hundreds of independent simulations; the pool
    spreads them over OCaml 5 domains while keeping results
    {e deterministic}: maps return results in submission order, never
    completion order, and a serial pool ([jobs = 1]) spawns no domains
    at all — every task runs synchronously at {!submit} on the calling
    domain, byte-identical to a plain loop.

    Internally one mutex guards the queue; the [jobs - 1] spawned
    workers take its oldest task, and {!await} {e helps} — it runs the
    newest queued task while its future is pending and blocks only once
    the queue is empty — so a pool of [jobs] computes on exactly [jobs]
    domains.

    Tasks must not share mutable state with each other. *)

type t

val create : int -> t
(** [create jobs] starts [jobs - 1] worker domains ([jobs > 1]; the
    creating domain is the [jobs]-th participant), or a serial pool
    with no domains ([jobs = 1]).  Exported with {!submit}, {!await}
    and {!shutdown} as the primitives the maps and {!with_pool} are
    built on.
    @raise Invalid_argument if [jobs < 1], or if the runtime cannot
    start [jobs - 1] more domains (the workers already started are
    joined first). *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the [-j] default. *)

type 'a future

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueue a task (serial pool: run it now).  Exceptions raised by the
    task are captured and re-raised by {!await}. *)

val await : 'a future -> 'a
(** Wait until the task completes; return its result or re-raise its
    exception (with the original backtrace).  On the pool's creating
    domain this runs other queued tasks while waiting. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map: submits every element, then awaits
    in submission order.  On a serial pool this is exactly
    [List.map].
    Exported as the primitive {!opt_map_list} is built on. *)

val map_chunks : ?chunk:int -> t -> ('a -> 'b) -> 'a list -> 'b list
(** [map_chunks ~chunk pool f xs] is [map_list pool f xs] with one
    future per batch of [chunk] consecutive elements instead of one per
    element.  Results (and any exception) are delivered in submission
    order, so the output is identical at every chunk size and every
    [-j].  [chunk = 0] (the default) picks a size that leaves about
    four batches per participant.  Exported as the primitive
    {!opt_map_list} is built on.
    @raise Invalid_argument if [chunk < 0]. *)

val opt_map_list : ?chunk:int -> t option -> ('a -> 'b) -> 'a list -> 'b list
(** [List.map] when the pool is [None] or serial; otherwise
    {!map_list} ([chunk = 1], the default), or {!map_chunks} for any
    other [chunk] ([0] = auto). *)

val shutdown : t -> unit
(** Drain the queue, stop and join the workers.  Idempotent.  Further
    {!submit}s raise [Invalid_argument], on a serial pool too. *)

val with_pool : int -> (t -> 'a) -> 'a
(** [create] / run / [shutdown] (also on exception).
    Exported as the primitive {!with_jobs} is built on. *)

val with_jobs : int -> (t option -> 'a) -> 'a
(** The drivers' [-j] entry point: [f None] for [jobs = 1], otherwise
    {!with_pool} with [f (Some pool)].
    @raise Invalid_argument as {!create} does, with a one-line message
    such as ["jobs must be >= 1 (got 0)"]. *)
