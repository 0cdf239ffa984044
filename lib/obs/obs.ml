type kind =
  | Store of int
  | Flush of int
  | Fence of int
  | Evict of int
  | Log_append of { log : string; bytes : int }
  | Boundary of { region : int; elided : bool }
  | Lock_acquire of int
  | Lock_release of int
  | Fase_enter
  | Fase_exit
  | Crash
  | Recovery_step of { scheme : string; what : string }

type event = { seq : int; tid : int; fase : int; kind : kind }

type rollup = {
  mutable stores : int;
  mutable flushes : int;
  mutable fences : int;
  mutable evictions : int;
  mutable log_appends : int;
  mutable log_bytes : int;
  mutable boundaries : int;
  mutable elided_boundaries : int;
  mutable lock_acquires : int;
  mutable lock_releases : int;
  mutable fase_enters : int;
  mutable fase_exits : int;
  mutable crashes : int;
  mutable recovery_steps : int;
}

let rollup_zero () =
  {
    stores = 0;
    flushes = 0;
    fences = 0;
    evictions = 0;
    log_appends = 0;
    log_bytes = 0;
    boundaries = 0;
    elided_boundaries = 0;
    lock_acquires = 0;
    lock_releases = 0;
    fase_enters = 0;
    fase_exits = 0;
    crashes = 0;
    recovery_steps = 0;
  }

type t = {
  buffer : bool;
  tap : (event -> unit) option;
  events : event Ido_util.Vec.t;
  total : rollup;
  mutable seen : Bytes.t;
      (* one byte per FASE id (the machine allocates ids densely from
         0): non-zero once an event was attributed to it *)
  mutable fases : int;
  mutable count : int;
}

let zero = rollup_zero ()

let create ?(buffer = true) ?tap () =
  {
    buffer;
    tap;
    events = Ido_util.Vec.create ();
    total = rollup_zero ();
    seen = Bytes.empty;
    fases = 0;
    count = 0;
  }

let bump r = function
  | Store _ -> r.stores <- r.stores + 1
  | Flush _ -> r.flushes <- r.flushes + 1
  | Fence _ -> r.fences <- r.fences + 1
  | Evict _ -> r.evictions <- r.evictions + 1
  | Log_append { bytes; _ } ->
      r.log_appends <- r.log_appends + 1;
      r.log_bytes <- r.log_bytes + bytes
  | Boundary { elided; _ } ->
      r.boundaries <- r.boundaries + 1;
      if elided then r.elided_boundaries <- r.elided_boundaries + 1
  | Lock_acquire _ -> r.lock_acquires <- r.lock_acquires + 1
  | Lock_release _ -> r.lock_releases <- r.lock_releases + 1
  | Fase_enter -> r.fase_enters <- r.fase_enters + 1
  | Fase_exit -> r.fase_exits <- r.fase_exits + 1
  | Crash -> r.crashes <- r.crashes + 1
  | Recovery_step _ -> r.recovery_steps <- r.recovery_steps + 1

let see_fase t fase =
  let n = Bytes.length t.seen in
  if fase >= n then begin
    let grown = Bytes.make (max (fase + 1) (2 * n)) '\000' in
    Bytes.blit t.seen 0 grown 0 n;
    t.seen <- grown
  end;
  if Bytes.get t.seen fase = '\000' then begin
    Bytes.set t.seen fase '\001';
    t.fases <- t.fases + 1
  end

let emit t ~tid ~fase kind =
  bump t.total kind;
  if fase >= 0 then see_fase t fase;
  (match t.tap with
  | None when not t.buffer -> ()
  | tap -> (
      let ev = { seq = t.count; tid; fase; kind } in
      if t.buffer then Ido_util.Vec.push t.events ev;
      match tap with Some f -> f ev | None -> ()));
  t.count <- t.count + 1

let count t = t.count
let events t = Ido_util.Vec.to_list t.events
let total t = t.total

let fases t = t.fases

let check ?(prior = zero) t ~stores ~writebacks ~fences ~evictions =
  let r = t.total and p = prior in
  let mismatch what seen counted =
    Error
      (Printf.sprintf "obs/%s mismatch: observed %d events, counters say %d"
         what seen counted)
  in
  let stores' = r.stores + p.stores and flushes = r.flushes + p.flushes in
  let fences' = r.fences + p.fences and evictions' = r.evictions + p.evictions in
  if stores' <> stores then mismatch "stores" stores' stores
  else if flushes <> writebacks then mismatch "flushes" flushes writebacks
  else if fences' <> fences then mismatch "fences" fences' fences
  else if evictions' <> evictions then mismatch "evictions" evictions' evictions
  else Ok ()

(* ---------- NDJSON ---------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let kind_label = function
  | Store _ -> "store"
  | Flush _ -> "flush"
  | Fence _ -> "fence"
  | Evict _ -> "evict"
  | Log_append _ -> "log_append"
  | Boundary _ -> "boundary"
  | Lock_acquire _ -> "lock_acquire"
  | Lock_release _ -> "lock_release"
  | Fase_enter -> "fase_enter"
  | Fase_exit -> "fase_exit"
  | Crash -> "crash"
  | Recovery_step _ -> "recovery_step"

(* The crash-point kinds: the persistence actions a power failure can
   precede (stores, write-backs, fences, evictions) and the lock
   operations that open and close persist-ordering windows. *)
let crash_point = function
  | Store _ | Flush _ | Fence _ | Evict _ | Lock_acquire _ | Lock_release _ ->
      true
  | Log_append _ | Boundary _ | Fase_enter | Fase_exit | Crash
  | Recovery_step _ ->
      false

let describe = function
  | Store a -> Printf.sprintf "store @%d" a
  | Flush a -> Printf.sprintf "clwb @%d" a
  | Fence _ -> "fence"
  | Evict a -> Printf.sprintf "evict line@%d" a
  | Lock_acquire id -> Printf.sprintf "lock %d" id
  | Lock_release id -> Printf.sprintf "unlock %d" id
  | k -> kind_label k

(* ---------- Coverage export ----------

   A small deterministic feature code per event, consumed by the
   fuzzer's coverage digest ([Ido_fuzz.Cov]).  Word addresses are
   deliberately ignored — coverage should reflect behaviour shape
   (which protocol actions happened, in what order), not allocation
   layout; payloads are folded down to a coarse class. *)

let strhash s =
  (* FNV-1a, folded to a byte: stable across runs and processes. *)
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x3FFFFFFF)
    s;
  !h land 0xff

let coverage_point ev =
  let point tag payload = (tag * 257) + (payload land 0xff) in
  match ev.kind with
  | Store _ -> point 1 0
  | Flush _ -> point 2 0
  | Fence pending ->
      point 3 (if pending = 0 then 0 else if pending = 1 then 1
               else if pending < 4 then 2 else 3)
  | Evict _ -> point 4 0
  | Log_append { log; _ } -> point 5 (strhash log)
  | Boundary { elided; _ } -> point 6 (if elided then 1 else 0)
  | Lock_acquire _ -> point 7 0
  | Lock_release _ -> point 8 0
  | Fase_enter -> point 9 0
  | Fase_exit -> point 10 0
  | Crash -> point 11 0
  | Recovery_step { scheme; what } ->
      point 12 (strhash scheme lxor strhash what)

let kind_payload = function
  | Store a | Flush a -> Printf.sprintf {|,"addr":%d|} a
  | Fence pending -> Printf.sprintf {|,"pending":%d|} pending
  | Evict a -> Printf.sprintf {|,"addr":%d|} a
  | Log_append { log; bytes } ->
      Printf.sprintf {|,"log":"%s","bytes":%d|} (json_escape log) bytes
  | Boundary { region; elided } ->
      Printf.sprintf {|,"region":%d,"elided":%b|} region elided
  | Lock_acquire l | Lock_release l -> Printf.sprintf {|,"lock":%d|} l
  | Fase_enter | Fase_exit | Crash -> ""
  | Recovery_step { scheme; what } ->
      Printf.sprintf {|,"scheme":"%s","what":"%s"|} (json_escape scheme)
        (json_escape what)

let event_to_ndjson ev =
  Printf.sprintf {|{"type":"event","seq":%d,"tid":%d,"fase":%d,"kind":"%s"%s}|}
    ev.seq ev.tid ev.fase (kind_label ev.kind) (kind_payload ev.kind)

let rollup_to_json r =
  Printf.sprintf
    ("{\"stores\":%d,\"flushes\":%d,\"fences\":%d,\"evictions\":%d,"
   ^^ "\"log_appends\":%d,\"log_bytes\":%d,\"boundaries\":%d,"
   ^^ "\"elided_boundaries\":%d,\"lock_acquires\":%d,\"lock_releases\":%d,"
   ^^ "\"fase_enters\":%d,\"fase_exits\":%d,\"crashes\":%d,"
   ^^ "\"recovery_steps\":%d}")
    r.stores r.flushes r.fences r.evictions r.log_appends r.log_bytes
    r.boundaries r.elided_boundaries r.lock_acquires r.lock_releases
    r.fase_enters r.fase_exits r.crashes r.recovery_steps
