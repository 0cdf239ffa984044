(** Simulated byte-addressable nonvolatile memory behind a volatile
    write-back cache.

    The memory is an array of 8-byte words (one [int64] per word, so
    writes are atomic at 8-byte granularity, matching the paper's
    assumption in Sec. II-A).  Stores land in a volatile cache-line
    overlay (8 words = 64 bytes per line); they reach the persistence
    domain only when the line is explicitly written back ([clwb]) or
    evicted.  Eviction order is pseudo-random — the "caches can write
    data back in arbitrary order" hazard of Sec. I.

    A {e crash} discards the overlay: the post-crash contents are
    exactly the words that had persisted.

    Representation: the memory is paged in 512-word (4 KiB) pages, and
    a page is materialised only when first written.  A materialised
    page stores its words unboxed, once: the {e current} image holds
    the newest value of every word (the only one {!load} reads).  A
    clean line's current words are its persisted words, so only a
    dirty line keeps its persisted words apart, as a 64-byte
    {e pre-image} in a pool sized by the dirty lines, at most
    [cache_lines].  The first store to a clean line copies the line
    into the pool; a write-back or eviction only frees the slot, and a
    crash copies every pre-image back.  The dirty index is a flat array
    of line numbers, each page records its lines' positions in it, and
    each position names its pool slot.  With a pre-boxed value,
    {!store}, {!clwb} and {!fence} allocate nothing once the index has
    grown. *)

open Ido_util

type addr = int
(** Word address into persistent memory. *)

type t

val words_per_line : int
(** 8 words = 64-byte cache lines. *)

type counters = {
  mutable loads : int;
  mutable stores : int;
  mutable clwbs : int;  (** clwb instructions issued, including no-ops *)
  mutable writebacks : int;
      (** clwbs that actually initiated a write-back (line was dirty);
          evictions are counted separately in [evictions] *)
  mutable fences : int;
  mutable evictions : int;
}

val create : ?cache_lines:int -> rng:Rng.t -> int -> t
(** [create ~rng size] makes a persistent memory of [size] words,
    zero-initialised and fully persisted.  [cache_lines] bounds the
    number of distinct {e dirty} lines held in the volatile overlay
    before pseudo-random eviction begins (default 1024).
    @raise Invalid_argument when [size] is not positive or
    [cache_lines] is below 1.

    Creation costs one pointer per page, and a memory holds only the
    pages it touched. *)

val size : t -> int
val counters : t -> counters

val materialised_pages : t -> int
(** Pages holding a private copy: those written by [store] or [poke]
    since {!create} ([zero] never materialises one).  The memory's
    footprint is about 4.5 KiB per such page (one 4 KiB image and the
    line-to-index table) plus 64 bytes of pre-image per dirty line.
    Exported as the footprint probe of the paging tests. *)

(** {1 Persist-event observation}

    Every action that can change (or is ordered with respect to) the
    persistence domain raises one {!Ido_obs.Obs.kind}: [Store a] as a
    store enters the overlay, [Flush a] as a dirty line is written back
    ([clwb]s that hit a clean line are no-ops and raise nothing),
    [Fence n] as a persist fence drains the [n] write-backs issued
    since the previous one, and [Evict base] as a dirty line is evicted.
    The event fires {e before} the action takes effect, so a hook that
    raises an exception stops the machine in a state whose persistent
    image is exactly what a power failure at that instant would leave —
    the basis of the crash-point exploration engine ({!Ido_check}).
    [poke] / [flush_all] / [crash] are simulator-side and never fire
    events.  With no hook installed no event value is built. *)

val set_event_hook : t -> (Ido_obs.Obs.kind -> unit) option -> unit
(** Install (or remove) the observation hook.  At most one is active;
    the VM installs its single emit path here while it has a
    subscriber (see {!Ido_vm.Vm.set_event_hook}). *)

val load : t -> addr -> int64
(** Read through the overlay (newest value, persisted or not). *)

val store : t -> addr -> int64 -> unit
(** Write into the volatile overlay; may trigger an eviction. *)

val load_int : t -> addr -> int
(** [Int64.to_int (load t addr)], counted exactly as {!load}, with no
    [int64] crossing the module boundary: for metadata words (counters,
    bitmaps, packed pcs, tags) that hold a native [int]. *)

val store_int : t -> addr -> int -> unit
(** [store t addr (Int64.of_int v)]: the same event, counters and
    eviction, with the word passed unboxed. *)

val load_into : t -> addr -> Bytes.t -> int -> unit
(** [load_into t addr b off] writes [load t addr] into bytes
    [[off, off + 8)] of [b] in native byte order: a load straight into
    a register file held as bytes, boxing nothing. *)

val store_from : t -> addr -> Bytes.t -> int -> unit
(** [store_from t addr b off] is {!store} of the word in bytes
    [[off, off + 8)] of [b], boxing nothing. *)

val poke : t -> addr -> int64 -> unit
(** Write directly into the persistence domain, bypassing the cache
    (still updating any cached copy).  For initialising freshly
    allocated blocks and for simulator-side metadata; not part of the
    simulated machine's store path. *)

val poke_int : t -> addr -> int -> unit
(** [poke t addr (Int64.of_int v)]. *)

val poke_bytes : t -> addr -> Bytes.t -> unit
(** [poke_bytes t addr b] has the effect of [poke t (addr + i) w] for
    the [i]-th 8-byte word [w] of [b] (native byte order), for every
    whole word of [b].  It boxes nothing, so a register file held as
    bytes can be recorded word for word.
    @raise Invalid_argument, writing nothing, when any word of the
    range is out of bounds. *)

val zero : t -> addr -> int -> unit
(** [zero t addr n] has the effect of [poke t a 0L] for every [a] in
    [addr, addr + n), and is a no-op when [n <= 0].  Pages never written
    since {!create} already read 0 and hold no dirty line, so they are
    skipped rather than materialised; a materialised page is filled in
    place, including any dirty cached line in the range.  Zeroing a
    large, mostly untouched arena therefore costs little and leaves
    {!reset} nothing extra to re-zero.  Raises no event.
    @raise Invalid_argument, writing nothing, when any word of the
    range is out of bounds (naming the first such address, as the
    equivalent [poke] loop would). *)

val clwb : t -> addr -> bool
(** Initiate write-back of the line containing [addr].  Returns whether
    a write-back actually occurred: [true] when the line was dirty (its
    contents enter the persistence domain and the waiting cost is
    charged by the next fence — see {!drain_pending}), [false] when the
    line was clean and the instruction was a no-op.  Callers that
    account for persistence cost ({!Ido_runtime.Pwriter}) must charge
    only on [true]. *)

val fence : t -> int
(** Persist fence: returns the number of write-backs initiated since
    the previous fence (for cost accounting) and resets the pending
    count.  After [fence], every preceding [clwb] is durable. *)

val pending_flushes : t -> int
(** Write-backs issued since the last fence. *)

val drain_pending : t -> unit
(** Forget pending write-backs without counting a fence (used when a
    crash lands between clwb and fence — the write-backs are already
    durable in this model; see DESIGN.md). *)

val persisted : t -> addr -> int64
(** The value currently in the persistence domain (what a crash would
    leave behind), ignoring any newer un-flushed store.
    Exported as the persistence-domain oracle. *)

val is_dirty : t -> addr -> bool
(** True when the word's line holds an un-persisted update.
    Exported as the per-word write-back probe of the persistence
    tests. *)

val dirty_lines : t -> int
(** Number of dirty lines currently in the overlay. *)

val dirty_linenos : t -> int list
(** The dirty lines' numbers in dirty-index order (first-dirtied first,
    except lines repositioned by the swap-with-last removal of an
    earlier write-back).  {!flush_all} persists in exactly this
    order.
    Exported as the reference for {!flush_all}'s order. *)

val crash : t -> unit
(** Power failure: drop the overlay in place.  Subsequent loads see
    only persisted values.  Counters are preserved. *)

val flush_all : t -> unit
(** Write back every dirty line and fence (test/setup helper: makes
    the whole memory durable without charging anything).  Lines are
    persisted in dirty-index order — see {!dirty_linenos}. *)

val reset : rng:Rng.t -> t -> unit
(** Return the memory to its just-created state in place — empty
    overlay, zeroed persistence domain and counters, [rng] as the new
    generator — keeping the touched pages, index storage and event
    hook.  Only the pages written since {!create} are re-zeroed, so
    resetting a mostly-untouched memory is cheap.  The
    arena-reuse path of the crash explorer calls this between
    injections instead of allocating a fresh memory. *)

(** {1 Crash images}

    A crash image is what a power failure leaves of a memory: its
    persistence domain, plus the eviction generator and the counters,
    which {!crash} keeps.  Taking one leaves the memory untouched, so a
    single forward run can yield the post-crash state of many crash
    instants. *)

type image

val crash_image : ?cache_survives:bool -> t -> image
(** The state {!crash} would leave now, copied out: the persisted words
    of every materialised page.  With [~cache_survives:true] (an
    NV-cache machine, where a crash first drains the cache) the newest
    value of every word is copied instead. *)

val restore_crashed : t -> image -> unit
(** Put the memory into the image's post-crash state: an empty
    overlay, no pending write-back, the image's persistence domain,
    generator and counters.  The memory's own pages are reused, as
    {!reset} reuses them, and the event hook is kept.
    @raise Invalid_argument when the image was taken of a memory of
    another size. *)
