type addr = int

(* Words are stored unboxed, 8 bytes each, in native byte order. *)
type t = { mutable cells : Bytes.t; mutable used : int }

let create ?(initial = 1024) () =
  { cells = Bytes.make (8 * Stdlib.max 16 initial) '\000'; used = 0 }

let words t = Bytes.length t.cells / 8

let ensure t addr =
  if addr < 0 then invalid_arg "Vmem: negative address";
  let n = words t in
  if addr >= n then begin
    let n' = Stdlib.max (addr + 1) (2 * n) in
    let b = Bytes.make (8 * n') '\000' in
    Bytes.blit t.cells 0 b 0 (8 * n);
    t.cells <- b
  end;
  if addr >= t.used then t.used <- addr + 1

let[@inline] load t addr =
  if addr < 0 || addr >= words t then 0L
  else Bytes.get_int64_ne t.cells (8 * addr)

let[@inline] store t addr v =
  ensure t addr;
  Bytes.set_int64_ne t.cells (8 * addr) v

let load_into t addr dst off = Bytes.set_int64_ne dst off (load t addr)
let store_from t addr src off = store t addr (Bytes.get_int64_ne src off)

let zero t addr n =
  if n > 0 then begin
    if addr < 0 then invalid_arg "Vmem: negative address";
    ensure t (addr + n - 1);
    Bytes.fill t.cells (8 * addr) (8 * n) '\000'
  end

let alloc t n =
  if n < 0 then invalid_arg "Vmem.alloc: negative size";
  let base = t.used in
  if n > 0 then ensure t (base + n - 1);
  base

(* Words past [used] read 0 and a store there grows the memory, so the
   copy holds only the words below the mark. *)
let copy t =
  { cells = Bytes.sub t.cells 0 (8 * Stdlib.max 16 t.used); used = t.used }
