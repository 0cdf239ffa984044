open Ido_util
open Ido_nvm
module Obs = Ido_obs.Obs

let qtest = QCheck_alcotest.to_alcotest

let mk ?(cache_lines = 64) ?(size = 4096) ?(seed = 1) () =
  Pmem.create ~cache_lines ~rng:(Rng.create seed) size

(* ------------------------------------------------------------------ *)

let test_load_store () =
  let pm = mk () in
  Pmem.store pm 10 42L;
  Alcotest.(check int64) "read back" 42L (Pmem.load pm 10);
  Alcotest.(check int64) "other word zero" 0L (Pmem.load pm 11)

let test_store_is_volatile_until_flushed () =
  let pm = mk () in
  Pmem.store pm 10 42L;
  Alcotest.(check bool) "dirty" true (Pmem.is_dirty pm 10);
  Alcotest.(check int64) "persistence domain stale" 0L (Pmem.persisted pm 10);
  Alcotest.(check bool) "clwb wrote back" true (Pmem.clwb pm 10);
  ignore (Pmem.fence pm);
  Alcotest.(check bool) "clean after flush" false (Pmem.is_dirty pm 10);
  Alcotest.(check int64) "durable" 42L (Pmem.persisted pm 10)

let test_crash_drops_unflushed () =
  let pm = mk () in
  Pmem.store pm 8 1L;
  ignore (Pmem.clwb pm 8);
  ignore (Pmem.fence pm);
  Pmem.store pm 8 2L;
  Pmem.store pm 400 3L;
  Pmem.crash pm;
  Alcotest.(check int64) "flushed value survives" 1L (Pmem.load pm 8);
  Alcotest.(check int64) "unflushed write lost" 0L (Pmem.load pm 400)

let test_line_granular_flush () =
  let pm = mk () in
  (* Words 16 and 17 share a cache line: flushing one persists both. *)
  Pmem.store pm 16 7L;
  Pmem.store pm 17 9L;
  ignore (Pmem.clwb pm 16);
  ignore (Pmem.fence pm);
  Pmem.crash pm;
  Alcotest.(check int64) "same line persisted together" 9L (Pmem.load pm 17)

let test_eviction_forces_writeback () =
  (* More dirty lines than capacity: older lines get written back in
     arbitrary order — the crash hazard of uninstrumented code. *)
  let pm = mk ~cache_lines:4 () in
  for i = 0 to 63 do
    Pmem.store pm (i * 8) (Int64.of_int i)
  done;
  let c = Pmem.counters pm in
  Alcotest.(check bool) "evictions happened" true (c.Pmem.evictions > 0);
  Alcotest.(check bool) "dirty lines bounded" true (Pmem.dirty_lines pm <= 5)

let test_eviction_order_arbitrary () =
  (* After a crash some evicted values survive while newer unflushed
     ones are lost, independent of program order. *)
  let pm = mk ~cache_lines:2 ~seed:3 () in
  for i = 0 to 31 do
    Pmem.store pm (i * 8) 1L
  done;
  Pmem.crash pm;
  let survived = ref 0 in
  for i = 0 to 31 do
    if Pmem.load pm (i * 8) = 1L then incr survived
  done;
  Alcotest.(check bool) "partial survival" true (!survived > 0 && !survived < 32)

let test_pending_flush_accounting () =
  let pm = mk () in
  Pmem.store pm 0 1L;
  Pmem.store pm 64 1L;
  ignore (Pmem.clwb pm 0);
  ignore (Pmem.clwb pm 64);
  Alcotest.(check int) "two pending" 2 (Pmem.pending_flushes pm);
  let c = Pmem.counters pm in
  Alcotest.(check int) "two write-backs counted" 2 c.Pmem.writebacks;
  Alcotest.(check int) "fence returns pending" 2 (Pmem.fence pm);
  Alcotest.(check int) "reset" 0 (Pmem.pending_flushes pm)

let test_clwb_clean_line_noop () =
  let pm = mk () in
  Alcotest.(check bool) "no write-back" false (Pmem.clwb pm 0);
  Alcotest.(check int) "nothing pending" 0 (Pmem.pending_flushes pm);
  let c = Pmem.counters pm in
  Alcotest.(check int) "issue counted" 1 c.Pmem.clwbs;
  Alcotest.(check int) "write-back not counted" 0 c.Pmem.writebacks

let test_poke_bypasses_cache () =
  let pm = mk () in
  Pmem.store pm 24 5L;
  Pmem.poke pm 24 9L;
  Alcotest.(check int64) "visible" 9L (Pmem.load pm 24);
  Alcotest.(check int64) "durable immediately" 9L (Pmem.persisted pm 24)

let test_flush_all () =
  let pm = mk () in
  for i = 0 to 99 do
    Pmem.store pm i (Int64.of_int i)
  done;
  Pmem.flush_all pm;
  Pmem.crash pm;
  for i = 0 to 99 do
    Alcotest.(check int64) "all durable" (Int64.of_int i) (Pmem.load pm i)
  done

let test_flush_all_dirty_index_order () =
  (* flush_all persists lines in dirty-index order (first store first),
     never in hash-bucket order: the order dirty_linenos reports is the
     order the write-backs happen in, so it must track first-store
     order and survive re-stores to already-dirty lines. *)
  let pm = mk ~size:8192 () in
  let lines = [ 40; 3; 17; 29; 5; 61 ] in
  List.iteri
    (fun i l -> Pmem.store pm (l * Pmem.words_per_line) (Int64.of_int (i + 1)))
    lines;
  (* A second store to a dirty line must not reposition it. *)
  Pmem.store pm ((17 * Pmem.words_per_line) + 2) 99L;
  Alcotest.(check (list int))
    "dirty-index order = first-store order" lines (Pmem.dirty_linenos pm);
  Pmem.flush_all pm;
  Alcotest.(check (list int)) "flush_all drains the index" []
    (Pmem.dirty_linenos pm);
  Alcotest.(check int) "no dirty lines left" 0 (Pmem.dirty_lines pm);
  Pmem.crash pm;
  List.iteri
    (fun i l ->
      Alcotest.(check int64)
        "line durable" (Int64.of_int (i + 1))
        (Pmem.load pm (l * Pmem.words_per_line)))
    lines;
  Alcotest.(check int64)
    "re-store durable" 99L
    (Pmem.load pm ((17 * Pmem.words_per_line) + 2))

let test_reset_is_fresh () =
  (* reset must be indistinguishable from create: same RNG stream, a
     zeroed persistence domain, an empty overlay, zero counters. *)
  let pm = mk () in
  Pmem.store pm 10 42L;
  ignore (Pmem.clwb pm 10);
  ignore (Pmem.fence pm);
  Pmem.store pm 900 7L;
  Pmem.reset ~rng:(Rng.create 5) pm;
  Alcotest.(check int64) "persisted word zeroed" 0L (Pmem.persisted pm 10);
  Alcotest.(check int64) "cached word gone" 0L (Pmem.load pm 900);
  Alcotest.(check int) "overlay empty" 0 (Pmem.dirty_lines pm);
  Alcotest.(check int) "nothing pending" 0 (Pmem.pending_flushes pm);
  let c = Pmem.counters pm in
  Alcotest.(check int) "stores zeroed" 0 c.Pmem.stores;
  Alcotest.(check int) "clwbs zeroed" 0 c.Pmem.clwbs;
  (* Same seed, same eviction choices: a reset memory replays the
     exact pseudo-random eviction stream of a fresh one, also over the
     pages an earlier run wrote on both sides of a page boundary. *)
  let fill pm =
    let evicted = ref [] in
    Pmem.set_event_hook pm
      (Some (function Obs.Evict a -> evicted := a :: !evicted | _ -> ()));
    for i = 0 to 63 do
      Pmem.store pm (i * 16) 1L
    done;
    Pmem.crash pm;
    (List.rev !evicted, List.init 64 (fun i -> Pmem.load pm (i * 16)))
  in
  let fresh = fill (Pmem.create ~cache_lines:4 ~rng:(Rng.create 5) 4096) in
  let again =
    let pm2 = mk ~cache_lines:4 ~seed:9 () in
    Pmem.store pm2 100 3L;
    Pmem.store pm2 511 4L;
    Pmem.store pm2 512 5L;
    Pmem.poke pm2 1000 6L;
    Pmem.flush_all pm2;
    Pmem.reset ~rng:(Rng.create 5) pm2;
    List.iter
      (fun a ->
        Alcotest.(check int64) "touched page re-zeroed" 0L (Pmem.persisted pm2 a))
      [ 100; 511; 512; 1000 ];
    fill pm2
  in
  Alcotest.(check (pair (list int) (list int64)))
    "reset replays create's evictions" fresh again

let test_footprint () =
  (* A default-size memory (8M words) pays for the pages it writes,
     not for its address range. *)
  let heap_bytes () = (Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8) in
  let before = heap_bytes () in
  let size = 1 lsl 23 in
  let pm = mk ~size () in
  List.iter (fun a -> Pmem.store pm a 1L) [ 0; 511; 512; size / 2; size - 1 ];
  ignore (Pmem.clwb pm 0);
  ignore (Pmem.fence pm);
  Pmem.flush_all pm;
  let grown = heap_bytes () - before in
  Alcotest.(check bool)
    (Printf.sprintf "major heap grew %d bytes, under 1 MiB" grown)
    true (grown < 1 lsl 20);
  Alcotest.(check int64) "last word durable" 1L (Pmem.persisted pm (size - 1))

(* A materialised page costs one 4 KiB word image and its table of
   line positions; only dirty lines keep their persisted words apart,
   in a pool bounded by the cache size.  [Obj.reachable_words] counts
   every block the memory holds, headers included. *)
let test_page_footprint () =
  let pages = 64 and cache_lines = 16 in
  let pm = mk ~cache_lines ~size:(pages * 512) () in
  for i = 0 to pages - 1 do
    Pmem.poke pm (i * 512) 1L;
    Pmem.store pm ((i * 512) + 8) 2L
  done;
  Alcotest.(check int) "pages materialised" pages (Pmem.materialised_pages pm);
  Alcotest.(check int) "cache full" cache_lines (Pmem.dirty_lines pm);
  let lines_per_page = 512 / Pmem.words_per_line in
  (* Per page: the image, its position table, and 16 words of headers,
     page-table slot and touched-list entry.  Per cache line: a 64-byte
     pre-image and two index entries.  Plus 256 words of fixed state. *)
  let bound =
    (pages * (512 + lines_per_page + 16))
    + (cache_lines * (Pmem.words_per_line + 2))
    + 256
  in
  let words = Obj.reachable_words (Obj.repr pm) in
  Alcotest.(check bool)
    (Printf.sprintf "%d words reachable, at most %d" words bound)
    true (words <= bound)

let test_bounds () =
  let pm = mk ~size:128 () in
  Alcotest.check_raises "oob"
    (Invalid_argument "Pmem: address 128 out of bounds") (fun () ->
      ignore (Pmem.load pm 128));
  Alcotest.check_raises "negative"
    (Invalid_argument "Pmem: address -1 out of bounds") (fun () ->
      Pmem.store pm (-1) 0L)

let test_zero () =
  let pm = mk ~size:2048 () in
  (* A dirty line straddling the range start, a persisted word past
     its end, and a page never written. *)
  Pmem.store pm 509 5L;
  Pmem.store pm 515 6L;
  Pmem.poke pm 700 7L;
  Pmem.poke pm 1520 8L;
  let pages = Pmem.materialised_pages pm in
  Pmem.zero pm 510 1000;
  Alcotest.(check int64) "dirty word before the range kept" 5L (Pmem.load pm 509);
  Alcotest.(check int64) "dirty word in range zeroed" 0L (Pmem.load pm 515);
  Alcotest.(check bool) "line stays dirty" true (Pmem.is_dirty pm 515);
  Alcotest.(check int64) "persisted word zeroed" 0L (Pmem.persisted pm 700);
  Alcotest.(check int64) "word past the range kept" 8L (Pmem.load pm 1520);
  Pmem.zero pm 1536 512;
  Alcotest.(check int) "zero pages stay shared" pages
    (Pmem.materialised_pages pm);
  Alcotest.check_raises "range past the end, first bad address"
    (Invalid_argument "Pmem: address 2048 out of bounds") (fun () ->
      Pmem.zero pm 1520 1000);
  Alcotest.(check int64) "nothing written on a bad range" 8L
    (Pmem.load pm 1520);
  Alcotest.check_raises "negative start"
    (Invalid_argument "Pmem: address -1 out of bounds") (fun () ->
      Pmem.zero pm (-1) 4);
  Pmem.zero pm (-5) 0

let test_bad_cache_lines () =
  Alcotest.check_raises "zero cache lines"
    (Invalid_argument "Pmem.create: cache_lines must be >= 1 (got 0)")
    (fun () -> ignore (mk ~cache_lines:0 ()))

let prop_flushed_survives_crash =
  QCheck.Test.make ~name:"flushed words always survive a crash" ~count:50
    QCheck.(pair small_int (list_of_size Gen.(int_range 1 40) (int_bound 500)))
    (fun (seed, addrs) ->
      let pm = mk ~cache_lines:8 ~seed:(seed + 1) () in
      List.iteri (fun i a -> Pmem.store pm a (Int64.of_int (i + 1))) addrs;
      (* Flush a subset explicitly. *)
      let flushed = List.filteri (fun i _ -> i mod 2 = 0) addrs in
      List.iter (fun a -> ignore (Pmem.clwb pm a)) flushed;
      ignore (Pmem.fence pm);
      (* Capture current values of the flushed addresses (a later
         duplicate store to the same line may still be cached). *)
      let expect = List.map (fun a -> (a, Pmem.persisted pm a)) flushed in
      Pmem.crash pm;
      List.for_all (fun (a, v) -> Pmem.load pm a = v) expect)

(* The memory as it was before paging: one flat word array for the
   persistence domain and a line overlay keyed by line number, with the
   same dirty index, eviction RNG and event timing.  The paged [Pmem]
   must be indistinguishable from it through every public call. *)
module Flat = struct
  type line = { lineno : int; words : int64 array; mutable slot : int }

  type t = {
    nvm : int64 array;
    overlay : (int, line) Hashtbl.t;
    index : line Vec.t;
    cache_lines : int;
    rng : Rng.t;
    counters : Pmem.counters;
    mutable pending : int;
    mutable events : Obs.kind list;  (* newest first *)
  }

  let wpl = Pmem.words_per_line

  let create ~cache_lines ~seed size =
    {
      nvm = Array.make size 0L;
      overlay = Hashtbl.create 16;
      index = Vec.create ();
      cache_lines;
      rng = Rng.create seed;
      counters =
        { Pmem.loads = 0; stores = 0; clwbs = 0; writebacks = 0; fences = 0;
          evictions = 0 };
      pending = 0;
      events = [];
    }

  let emit m ev = m.events <- ev :: m.events
  let find m a = Hashtbl.find_opt m.overlay (a / wpl)

  let load m a =
    m.counters.loads <- m.counters.loads + 1;
    match find m a with Some l -> l.words.(a mod wpl) | None -> m.nvm.(a)

  let persist m l =
    let base = l.lineno * wpl in
    Array.blit l.words 0 m.nvm base (min wpl (Array.length m.nvm - base))

  let write_back m l =
    persist m l;
    Hashtbl.remove m.overlay l.lineno;
    let last = Vec.pop m.index in
    if last != l then begin
      Vec.set m.index l.slot last;
      last.slot <- l.slot
    end

  let store m a v =
    emit m (Obs.Store a);
    m.counters.stores <- m.counters.stores + 1;
    let l =
      match find m a with
      | Some l -> l
      | None ->
          if Hashtbl.length m.overlay >= m.cache_lines then begin
            let victim = Vec.get m.index (Rng.int m.rng (Vec.length m.index)) in
            emit m (Obs.Evict (victim.lineno * wpl));
            write_back m victim;
            m.counters.evictions <- m.counters.evictions + 1
          end;
          let lineno = a / wpl in
          let base = lineno * wpl in
          let words = Array.make wpl 0L in
          Array.blit m.nvm base words 0 (min wpl (Array.length m.nvm - base));
          let l = { lineno; words; slot = Vec.length m.index } in
          Hashtbl.replace m.overlay lineno l;
          Vec.push m.index l;
          l
    in
    l.words.(a mod wpl) <- v

  let poke m a v =
    m.nvm.(a) <- v;
    match find m a with Some l -> l.words.(a mod wpl) <- v | None -> ()

  let clwb m a =
    m.counters.clwbs <- m.counters.clwbs + 1;
    match find m a with
    | Some l ->
        emit m (Obs.Flush a);
        write_back m l;
        m.counters.writebacks <- m.counters.writebacks + 1;
        m.pending <- m.pending + 1;
        true
    | None -> false

  let fence m =
    emit m (Obs.Fence m.pending);
    m.counters.fences <- m.counters.fences + 1;
    let p = m.pending in
    m.pending <- 0;
    p

  let crash m =
    Hashtbl.reset m.overlay;
    Vec.clear m.index;
    m.pending <- 0

  let flush_all m =
    Vec.iter (persist m) m.index;
    crash m

  let reset m ~seed =
    crash m;
    Array.fill m.nvm 0 (Array.length m.nvm) 0L;
    Rng.assign ~into:m.rng (Rng.create seed);
    let c = m.counters in
    c.loads <- 0;
    c.stores <- 0;
    c.clwbs <- 0;
    c.writebacks <- 0;
    c.fences <- 0;
    c.evictions <- 0

  let dirty_linenos m = List.map (fun l -> l.lineno) (Vec.to_list m.index)
end

type op =
  | Store of int * int64
  | Load of int
  | Poke of int * int64
  | Zero of int * int
  | Poke_bytes of int * int64 list
  | Clwb of int
  | Fence
  | Crash
  | Flush_all
  | Reset of int

let show_op = function
  | Store (a, v) -> Printf.sprintf "store %d %Ld" a v
  | Load a -> Printf.sprintf "load %d" a
  | Poke (a, v) -> Printf.sprintf "poke %d %Ld" a v
  | Zero (a, n) -> Printf.sprintf "zero %d %d" a n
  | Poke_bytes (a, vs) ->
      Printf.sprintf "poke_bytes %d [%s]" a
        (String.concat "; " (List.map Int64.to_string vs))
  | Clwb a -> Printf.sprintf "clwb %d" a
  | Fence -> "fence"
  | Crash -> "crash"
  | Flush_all -> "flush_all"
  | Reset s -> Printf.sprintf "reset %d" s

(* Two full pages and a partial third that ends mid-line, so the last
   word sits in a line that runs past the memory's end. *)
let diff_size = (2 * 512) + 389

let gen_op =
  let open QCheck.Gen in
  let addr =
    frequency
      [
        (3, int_bound (diff_size - 1));
        (2, int_bound 63);
        (2, oneofl [ 0; 7; 8; 511; 512; 513; 1023; 1024; diff_size - 1 ]);
      ]
  in
  (* Full-range words: the extremes, all-ones, and byte-distinct
     patterns, so a byte-offset or sign bug in the unboxed images shows
     as a wrong word. *)
  let value =
    frequency
      [
        ( 2,
          oneofl
            [ Int64.min_int; Int64.max_int; -1L; 0x0102030405060708L;
              0x8070605040302010L; 0xFF00000000000001L ] );
        (3, ui64);
        (1, map Int64.of_int small_nat);
      ]
  in
  (* Zero ranges: within a line, across a few lines, across a page
     boundary, up to the memory's end, and empty. *)
  let zero =
    frequency
      [
        (3, pair addr (int_range 1 16));
        (2, pair (int_range 400 600) (int_range 20 700));
        (1, map (fun a -> (a, diff_size - a)) addr);
        (1, pair addr (return 0));
      ]
    >|= fun (a, n) -> Zero (a, Stdlib.min n (diff_size - a))
  in
  frequency
    [
      (6, map2 (fun a v -> Store (a, v)) addr value);
      (4, map (fun a -> Load a) addr);
      (2, map2 (fun a v -> Poke (a, v)) addr value);
      ( 1,
        map2
          (fun a vs ->
            Poke_bytes (a, List.filteri (fun i _ -> a + i < diff_size) vs))
          addr
          (list_size (int_range 0 20) value) );
      (3, zero);
      (3, map (fun a -> Clwb a) addr);
      (2, return Fence);
      (1, return Crash);
      (1, return Flush_all);
      (1, map (fun s -> Reset s) small_nat);
    ]

(* A cache size and a history of at most [n] random ops for it.  Three
   in four histories run on a 3-line cache, where most first stores to
   a line evict.  The rest run on a 256-line cache, more lines than
   [diff_size] has, so nothing evicts; they open with a burst of stores
   spread over the memory, one in seven a [clwb], so the dirty index
   and the pre-image pool outgrow their first 64 and 128 entries with
   positions already swapped by write-backs. *)
let gen_cache_history n =
  let open QCheck.Gen in
  let* cache_lines = frequency [ (3, return 3); (1, return 256) ] in
  let* burst =
    if cache_lines = 3 then return []
    else
      let a = int_bound (diff_size - 1) in
      list_size (int_range 100 600)
        (frequency
           [ (6, map2 (fun a v -> Store (a, v)) a ui64);
             (1, map (fun a -> Clwb a) a) ])
  in
  let* ops = list_size (int_range 0 n) gen_op in
  return (cache_lines, burst @ ops)

let prop_paged_matches_flat =
  QCheck.Test.make ~name:"paged = flat reference" ~count:200
    (QCheck.make
       ~print:QCheck.Print.(pair int (pair int (list show_op)))
       QCheck.Gen.(pair small_nat (gen_cache_history 300)))
    (fun (seed, (cache_lines, ops)) ->
      let pm = Pmem.create ~cache_lines ~rng:(Rng.create seed) diff_size in
      let flat = Flat.create ~cache_lines ~seed diff_size in
      let events = ref [] in
      Pmem.set_event_hook pm (Some (fun ev -> events := ev :: !events));
      let same_state () =
        Pmem.counters pm = flat.Flat.counters
        && Pmem.dirty_linenos pm = Flat.dirty_linenos flat
        && Pmem.dirty_lines pm = Vec.length flat.Flat.index
        && Pmem.pending_flushes pm = flat.Flat.pending
        && !events = flat.Flat.events
      in
      let step op =
        (match op with
        | Store (a, v) ->
            Pmem.store pm a v;
            Flat.store flat a v;
            true
        | Load a -> Pmem.load pm a = Flat.load flat a
        | Poke (a, v) ->
            Pmem.poke pm a v;
            Flat.poke flat a v;
            true
        | Zero (a, n) ->
            Pmem.zero pm a n;
            for i = a to a + n - 1 do
              Flat.poke flat i 0L
            done;
            true
        | Poke_bytes (a, vs) ->
            let b = Bytes.create (8 * List.length vs) in
            List.iteri (fun i v -> Bytes.set_int64_ne b (8 * i) v) vs;
            Pmem.poke_bytes pm a b;
            List.iteri (fun i v -> Flat.poke flat (a + i) v) vs;
            true
        | Clwb a -> Pmem.clwb pm a = Flat.clwb flat a
        | Fence -> Pmem.fence pm = Flat.fence flat
        | Crash ->
            Pmem.crash pm;
            Flat.crash flat;
            true
        | Flush_all ->
            Pmem.flush_all pm;
            Flat.flush_all flat;
            true
        | Reset s ->
            Pmem.reset ~rng:(Rng.create s) pm;
            Flat.reset flat ~seed:s;
            true)
        && same_state ()
      in
      let every_word f = List.for_all f (List.init diff_size Fun.id) in
      List.for_all step ops
      && every_word (fun a -> Pmem.persisted pm a = flat.Flat.nvm.(a))
      && every_word (fun a ->
             Pmem.is_dirty pm a = Option.is_some (Flat.find flat a))
      && every_word (fun a -> Pmem.load pm a = Flat.load flat a))

(* A crash image taken after a random history leaves the memory as it
   was, and restoring it into a memory with another history (other
   pages written, other lines dirty) gives what crashing a twin of the
   first memory gives: the same words, counters and generator, so later
   evictions agree too. *)
let prop_crash_image_is_crash =
  QCheck.Test.make ~name:"crash image restored = crash" ~count:100
    (QCheck.make
       ~print:
         QCheck.Print.(
           pair (pair int bool)
             (triple (pair int (list show_op)) (list show_op) (list show_op)))
       QCheck.Gen.(
         let ops n = list_size (int_range 0 n) gen_op in
         pair (pair small_nat bool)
           (triple (gen_cache_history 200) (ops 200) (ops 100))))
    (fun ((seed, cache_survives), ((cache_lines, ops), other, later)) ->
      let mem seed = Pmem.create ~cache_lines ~rng:(Rng.create seed) diff_size in
      let apply pm = function
        | Store (a, v) -> Pmem.store pm a v
        | Load a -> ignore (Pmem.load pm a)
        | Poke (a, v) -> Pmem.poke pm a v
        | Zero (a, n) -> Pmem.zero pm a n
        | Poke_bytes (a, vs) ->
            let b = Bytes.create (8 * List.length vs) in
            List.iteri (fun i v -> Bytes.set_int64_ne b (8 * i) v) vs;
            Pmem.poke_bytes pm a b
        | Clwb a -> ignore (Pmem.clwb pm a)
        | Fence -> ignore (Pmem.fence pm)
        | Crash -> Pmem.crash pm
        | Flush_all -> Pmem.flush_all pm
        | Reset s -> Pmem.reset ~rng:(Rng.create s) pm
      in
      let every_word f = List.for_all f (List.init diff_size Fun.id) in
      let same a b =
        Pmem.counters a = Pmem.counters b
        && Pmem.dirty_linenos a = Pmem.dirty_linenos b
        && Pmem.pending_flushes a = Pmem.pending_flushes b
        && every_word (fun w ->
               Pmem.persisted a w = Pmem.persisted b w
               && Pmem.load a w = Pmem.load b w)
      in
      (* [same] loads every word, which counts: [witness] takes the
         loads that check [imaged], so [twin]'s counters stay put. *)
      let imaged = mem seed and witness = mem seed and twin = mem seed in
      let target = mem (seed + 1) in
      List.iter (fun m -> List.iter (apply m) ops) [ imaged; witness; twin ];
      List.iter (apply target) other;
      let image = Pmem.crash_image ~cache_survives imaged in
      let untouched = same imaged witness in
      if cache_survives then Pmem.flush_all twin;
      Pmem.crash twin;
      Pmem.restore_crashed target image;
      let restored = same target twin in
      List.iter (fun m -> List.iter (apply m) later) [ target; twin ];
      untouched && restored && same target twin)

(* ------------------------------------------------------------------ *)
(* Vmem *)

let test_vmem () =
  let vm = Vmem.create () in
  Vmem.store vm 5 42L;
  Alcotest.(check int64) "read" 42L (Vmem.load vm 5);
  let words = [ Int64.min_int; Int64.max_int; -1L; 0x0102030405060708L ] in
  List.iteri (fun i w -> Vmem.store vm (10 + i) w) words;
  List.iteri
    (fun i w -> Alcotest.(check int64) "full-range word" w (Vmem.load vm (10 + i)))
    words;
  Vmem.zero vm 11 2;
  Alcotest.(check (list int64)) "zeroed in place"
    [ Int64.min_int; 0L; 0L; 0x0102030405060708L ]
    (List.init 4 (fun i -> Vmem.load vm (10 + i)));
  Alcotest.(check int64) "negative reads 0" 0L (Vmem.load vm (-1));
  Alcotest.(check int64) "unwritten" 0L (Vmem.load vm 100000);
  let a = Vmem.alloc vm 10 in
  let b = Vmem.alloc vm 10 in
  Alcotest.(check bool) "disjoint" true (b >= a + 10)

let test_vmem_grows () =
  let vm = Vmem.create ~initial:4 () in
  Vmem.store vm 1000 1L;
  Alcotest.(check int64) "grown" 1L (Vmem.load vm 1000)

let test_poke_bytes_bounds () =
  let pm = mk ~size:600 () in
  let b = Bytes.make 16 '\001' in
  Alcotest.check_raises "past the end"
    (Invalid_argument "Pmem: address 600 out of bounds") (fun () ->
      Pmem.poke_bytes pm 599 b);
  Alcotest.(check int64) "nothing written" 0L (Pmem.load pm 599);
  Pmem.poke_bytes pm 510 (Bytes.cat b b);
  Alcotest.(check int64) "spans a page boundary" 0x0101010101010101L
    (Pmem.persisted pm 513)

(* Allocation guard (native code only): once the page is materialised
   and the dirty index has grown, store, clwb and fence of a pre-boxed
   value allocate nothing, on a clean line and on a dirty one. *)
let test_hot_path_allocates_nothing () =
  if Sys.backend_type = Sys.Native then begin
    let pm = mk ~cache_lines:64 () in
    let v = Sys.opaque_identity 0x0102030405060708L in
    let round () =
      for line = 0 to 15 do
        let a = line * Pmem.words_per_line in
        Pmem.store pm a v;  (* clean -> dirty *)
        Pmem.store pm (a + 3) v;  (* already dirty *)
        ignore (Pmem.clwb pm a : bool);
        ignore (Pmem.clwb pm a : bool)  (* clean: a no-op *)
      done;
      ignore (Pmem.fence pm : int)
    in
    round ();
    let before = Gc.minor_words () in
    for _ = 1 to 1000 do
      round ()
    done;
    let words = Gc.minor_words () -. before in
    Alcotest.(check bool)
      (Printf.sprintf "%.0f minor words over 64k stores" words)
      true (words < 100.)
  end

let suites =
  [
    ( "nvm.pmem",
      [
        Alcotest.test_case "load/store" `Quick test_load_store;
        Alcotest.test_case "volatile until flushed" `Quick
          test_store_is_volatile_until_flushed;
        Alcotest.test_case "crash drops unflushed" `Quick test_crash_drops_unflushed;
        Alcotest.test_case "line-granular flush" `Quick test_line_granular_flush;
        Alcotest.test_case "eviction writeback" `Quick test_eviction_forces_writeback;
        Alcotest.test_case "arbitrary eviction order" `Quick
          test_eviction_order_arbitrary;
        Alcotest.test_case "pending accounting" `Quick test_pending_flush_accounting;
        Alcotest.test_case "clwb clean noop" `Quick test_clwb_clean_line_noop;
        Alcotest.test_case "poke" `Quick test_poke_bypasses_cache;
        Alcotest.test_case "flush_all" `Quick test_flush_all;
        Alcotest.test_case "flush_all order = dirty index" `Quick
          test_flush_all_dirty_index_order;
        Alcotest.test_case "reset = fresh create" `Quick test_reset_is_fresh;
        Alcotest.test_case "bounds" `Quick test_bounds;
        Alcotest.test_case "zero skips zero pages" `Quick test_zero;
        Alcotest.test_case "cache_lines >= 1" `Quick test_bad_cache_lines;
        Alcotest.test_case "8M words, few pages" `Quick test_footprint;
        qtest prop_flushed_survives_crash;
        qtest prop_paged_matches_flat;
        Alcotest.test_case "poke_bytes bounds" `Quick test_poke_bytes_bounds;
        Alcotest.test_case "hot path allocates nothing" `Quick
          test_hot_path_allocates_nothing;
        qtest prop_crash_image_is_crash;
        Alcotest.test_case "one word image per page" `Quick test_page_footprint;
      ] );
    ( "nvm.vmem",
      [
        Alcotest.test_case "basic" `Quick test_vmem;
        Alcotest.test_case "grows" `Quick test_vmem_grows;
      ] );
  ]
