type addr = int

type t = { mutable cells : int64 array; mutable used : int }

let create ?(initial = 1024) () =
  { cells = Array.make (Stdlib.max 16 initial) 0L; used = 0 }

let ensure t addr =
  if addr < 0 then invalid_arg "Vmem: negative address";
  let n = Array.length t.cells in
  if addr >= n then begin
    let n' = Stdlib.max (addr + 1) (2 * n) in
    let a = Array.make n' 0L in
    Array.blit t.cells 0 a 0 n;
    t.cells <- a
  end;
  if addr >= t.used then t.used <- addr + 1

let load t addr =
  if addr < 0 || addr >= Array.length t.cells then 0L else t.cells.(addr)

let store t addr v =
  ensure t addr;
  t.cells.(addr) <- v

let zero t addr n =
  if n > 0 then begin
    if addr < 0 then invalid_arg "Vmem: negative address";
    ensure t (addr + n - 1);
    Array.fill t.cells addr n 0L
  end

let alloc t n =
  if n < 0 then invalid_arg "Vmem.alloc: negative size";
  let base = t.used in
  if n > 0 then ensure t (base + n - 1);
  base

let size t = t.used
