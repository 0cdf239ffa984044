(* Row kinds. *)
let k_write = 'w'
let k_acquire = 'a'
let k_release = 'r'

(* Every FASE of a set of logs and its write and lock records, read in
   one pass into arrays sized by the logs' record count.  Row [i] is
   the [i]-th write, acquire or release read inside a FASE; a FASE's
   rows are contiguous, so [fase] never decreases.  [words] holds row
   [i]'s [a] word at byte [16 * i] and its [b] word at [16 * i + 8],
   copied from the log as they are: an undo value or a lock word is
   never narrowed to an [int]. *)
type log = {
  records : int;
  nfases : int;
  complete : Bytes.t;  (* byte [f] is '\001' once FASE [f]'s end is read *)
  rows : int;
  kind : Bytes.t;
  fase : int array;
  seq : int array;
  words : Bytes.t;
}

let scan pm nodes =
  let readers = List.map (Undo_log.reader pm) nodes in
  let n = List.fold_left (fun acc r -> acc + Undo_log.remaining r) 0 readers in
  let complete = Bytes.make n '\000' and kind = Bytes.create n in
  let fase = Array.make n 0 and seq = Array.make n 0 in
  let words = Bytes.create (16 * n) in
  let nfases = ref 0 and rows = ref 0 in
  List.iter
    (fun r ->
      let cur = ref (-1) in
      let row k =
        if !cur >= 0 then begin
          let i = !rows in
          Bytes.set kind i k;
          fase.(i) <- !cur;
          seq.(i) <- Undo_log.seq r;
          Bytes.blit (Undo_log.ab r) 0 words (16 * i) 16;
          rows := i + 1
        end
      in
      while Undo_log.remaining r > 0 do
        match Undo_log.next r with
        | Undo_log.Fase_begin ->
            cur := !nfases;
            incr nfases
        | Undo_log.Fase_end ->
            if !cur >= 0 then begin
              Bytes.set complete !cur '\001';
              cur := -1
            end
        | Undo_log.Write -> row k_write
        | Undo_log.Acquire -> row k_acquire
        | Undo_log.Release -> row k_release
      done)
    readers;
  { records = n; nfases = !nfases; complete; rows = !rows; kind; fase; seq; words }

let records l = l.records

(* The lock word of a lock row.  Comparisons are written on annotated
   [int64]s, which compile to unboxed compares. *)
let lock l i = Bytes.get_int64_ne l.words (16 * i)

(* The rows satisfying [p], ascending, in an array of their number. *)
let rows_where l p =
  let n = ref 0 in
  for i = 0 to l.rows - 1 do
    if p i then incr n
  done;
  let a = Array.make !n 0 and k = ref 0 in
  for i = 0 to l.rows - 1 do
    if p i then begin
      a.(!k) <- i;
      incr k
    end
  done;
  a

(* The first index in [lo, hi) not [below], for a [below] that holds
   on a prefix of the range. *)
let rec lower_bound below lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if below mid then lower_bound below (mid + 1) hi else lower_bound below lo mid

(* The least set containing every interrupted FASE and closed under
   G rolled back, G released l at s', F acquired l at s >= s'
   ==> F rolled back.  The acquire rows are sorted by lock and, within
   a lock, newest first; a worklist expands each rolled-back FASE once.
   A release at s' marks its lock's acquires from the lock's frontier
   down to s' and moves the frontier past them: any later release of
   that lock reaches the same marked prefix, so every acquire row is
   visited at most once. *)
let rollback_set l =
  let acq = rows_where l (fun i -> Bytes.get l.kind i = k_acquire) in
  Array.stable_sort
    (fun i j ->
      let li : int64 = lock l i and lj = lock l j in
      if li < lj then -1 else if li > lj then 1 else compare l.seq.(j) l.seq.(i))
    acq;
  let nacq = Array.length acq in
  (* [front.(g)], for the first position [g] of a lock's acquires: the
     first of them not yet marked. *)
  let front = Array.init nacq Fun.id in
  let rolled = Array.make l.nfases false in
  let work = Array.make l.nfases 0 and top = ref 0 in
  let mark f =
    if not rolled.(f) then begin
      rolled.(f) <- true;
      work.(!top) <- f;
      incr top
    end
  in
  for f = 0 to l.nfases - 1 do
    if Bytes.get l.complete f = '\000' then mark f
  done;
  while !top > 0 do
    decr top;
    let g = work.(!top) in
    let i = ref (lower_bound (fun i -> l.fase.(i) < g) 0 l.rows) in
    while !i < l.rows && l.fase.(!i) = g do
      if Bytes.get l.kind !i = k_release then begin
        let lk : int64 = lock l !i and s' = l.seq.(!i) in
        let g0 = lower_bound (fun p -> lock l acq.(p) < lk) 0 nacq in
        if g0 < nacq && lock l acq.(g0) = lk then begin
          let p = ref front.(g0) in
          while !p < nacq && lock l acq.(!p) = lk && l.seq.(acq.(!p)) >= s' do
            mark l.fase.(acq.(!p));
            incr p
          done;
          front.(g0) <- !p
        end
      end;
      incr i
    done
  done;
  rolled

(* Store back the [b] word of each row in [undo] at its [a] address and
   write it back, newest sequence number first; equal sequence numbers,
   which no machine logs, go later row first. *)
let undo_newest_first w ~(seq : int array) ~words undo =
  Array.sort
    (fun i j -> if seq.(i) <> seq.(j) then compare seq.(j) seq.(i) else compare j i)
    undo;
  Array.iter
    (fun i ->
      let addr = Int64.to_int (Bytes.get_int64_ne words (16 * i)) in
      Pwriter.store_from w addr words ((16 * i) + 8);
      Pwriter.clwb w addr)
    undo

let undo w l rolled =
  let undo = rows_where l (fun i -> Bytes.get l.kind i = k_write && rolled.(l.fase.(i))) in
  undo_newest_first w ~seq:l.seq ~words:l.words undo;
  if Array.length undo > 0 then Pwriter.fence w;
  Array.length undo

let undo_region w node =
  let pm = Pwriter.pmem w in
  let r = Undo_log.reader pm node in
  let n = Undo_log.remaining r in
  let seq = Array.make n 0 and words = Bytes.create (16 * n) in
  let nw = ref 0 in
  while Undo_log.remaining r > 0 do
    match Undo_log.next r with
    | Undo_log.Write ->
        seq.(!nw) <- Undo_log.seq r;
        Bytes.blit (Undo_log.ab r) 0 words (16 * !nw) 16;
        incr nw
    | Undo_log.Fase_begin | Undo_log.Fase_end | Undo_log.Acquire | Undo_log.Release -> ()
  done;
  if Undo_log.in_fase pm node then begin
    undo_newest_first w ~seq ~words (Array.init !nw Fun.id);
    Pwriter.fence w;
    (n, !nw)
  end
  else (n, -1)
