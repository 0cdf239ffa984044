open Ido_nvm

type t = {
  pm : Pmem.t;
  lat : Latency.t;
  mutable cost : int;
  mutable pending : int;
  mutable seen : int array;  (* [clwb_lines] scratch, reused across calls *)
}

let create pm lat = { pm; lat; cost = 0; pending = 0; seen = [||] }

let pmem t = t.pm
let latency t = t.lat

let load t a =
  t.cost <- t.cost + t.lat.Latency.mem;
  Pmem.load t.pm a

let store t a v =
  t.cost <- t.cost + t.lat.Latency.mem;
  Pmem.store t.pm a v

let store_int t a v =
  t.cost <- t.cost + t.lat.Latency.mem;
  Pmem.store_int t.pm a v

let load_into t a dst off =
  t.cost <- t.cost + t.lat.Latency.mem;
  Pmem.load_into t.pm a dst off

let store_from t a src off =
  t.cost <- t.cost + t.lat.Latency.mem;
  Pmem.store_from t.pm a src off

let clwb t a =
  (* Charge only when the line was actually dirty: a clwb that hits a
     clean line writes nothing back, so neither the issue cost nor the
     fence's drain cost applies.  nvm_extra is the Fig. 9 knob: an
     inline delay after each write-back, as the paper inserts it.  On
     an NV-cache machine the write-back is free — cached data is
     already persistent. *)
  let wrote = Pmem.clwb t.pm a in
  if wrote && not t.lat.Latency.nv_caches then begin
    t.cost <- t.cost + t.lat.Latency.clwb_issue + t.lat.Latency.nvm_extra;
    t.pending <- t.pending + 1
  end

(* One write-back per distinct line, in first-occurrence order: in this
   machine model a write-back is durable at issue, so callers sequence
   their addresses write-ahead (log payload before publish word) and a
   crash between any two write-backs still sees a consistent prefix.
   The lines already written back by this call are [seen.(0..n-1)],
   searched newest first so a run of addresses in one line costs one
   comparison each; the call allocates nothing once [seen] has grown.
   The addresses are [base + x] for each [x] of the list. *)
let rec seen_line seen i (line : int) =
  i >= 0 && (seen.(i) = line || seen_line seen (i - 1) line)

let rec clwb_distinct t base n = function
  | [] -> ()
  | x :: rest ->
      let line = (base + x) / Pmem.words_per_line in
      if seen_line t.seen (n - 1) line then clwb_distinct t base n rest
      else begin
        if n = Array.length t.seen then begin
          let grown = Array.make (max 8 (2 * n)) 0 in
          Array.blit t.seen 0 grown 0 n;
          t.seen <- grown
        end;
        t.seen.(n) <- line;
        clwb t (line * Pmem.words_per_line);
        clwb_distinct t base (n + 1) rest
      end

let clwb_lines t addrs = clwb_distinct t 0 0 addrs
let clwb_offsets t ~base offsets = clwb_distinct t base 0 offsets

(* [clwb_lines] over two or three addresses, without the list. *)
let clwb2 t a b =
  let la = a / Pmem.words_per_line and lb = b / Pmem.words_per_line in
  clwb t (la * Pmem.words_per_line);
  if lb <> la then clwb t (lb * Pmem.words_per_line)

let clwb3 t a b c =
  clwb2 t a b;
  let lc = c / Pmem.words_per_line in
  if lc <> a / Pmem.words_per_line && lc <> b / Pmem.words_per_line then
    clwb t (lc * Pmem.words_per_line)

let fence t =
  ignore (Pmem.fence t.pm);
  t.cost <- t.cost + Latency.fence_cost t.lat ~pending:t.pending;
  t.pending <- 0

let persist_store t a v =
  store t a v;
  clwb t a;
  fence t

let add_cost t c = t.cost <- t.cost + c

let take_cost t =
  let c = t.cost in
  t.cost <- 0;
  c

let pending t = t.pending
