open Ido_ir
open Ido_runtime
module Vm = Ido_vm.Vm
module Wcommon = Ido_workloads.Wcommon

(* Shared toy program: two-cell atomic increment under a lock. *)
let counter_program () =
  let b, _ = Builder.create ~name:"init" ~nparams:0 in
  let cell = Wcommon.alloc_node b 8 [] in
  Wcommon.set_root b 0 (Ir.Reg cell);
  Builder.ret b None;
  let init = Builder.finish b in
  let b, ps = Builder.create ~name:"worker" ~nparams:1 in
  let n = List.nth ps 0 in
  let cell = Wcommon.get_root b 0 in
  let lockid = Builder.bin b Ir.Add (Ir.Reg cell) (Ir.Imm 4L) in
  Wcommon.for_loop b (Ir.Reg n) (fun _ ->
      Builder.lock b (Ir.Reg lockid);
      let c = Builder.load b Ir.Persistent (Ir.Reg cell) 0 in
      let c1 = Builder.bin b Ir.Add (Ir.Reg c) (Ir.Imm 1L) in
      Builder.store b Ir.Persistent (Ir.Reg cell) 0 (Ir.Reg c1);
      Builder.unlock b (Ir.Reg lockid);
      Wcommon.observe b (Ir.Imm 1L));
  Builder.ret b None;
  { Ir.funcs = [ ("init", init); ("worker", Builder.finish b) ] }

let boot ?(scheme = Scheme.Ido) ?(seed = 42) prog =
  let m = Vm.create { (Vm.config scheme) with seed } prog in
  let _ = Vm.spawn m ~fname:"init" ~args:[] in
  (match Vm.run m with `Idle -> () | _ -> Alcotest.fail "init stuck");
  Vm.flush_all m;
  m

let counter_value m =
  let cell = Int64.to_int (Ido_region.Region.get_root (Vm.region m) 0) in
  Ido_nvm.Pmem.load (Vm.pmem m) cell

let test_mutual_exclusion_all_schemes () =
  (* Racy read-modify-write made atomic by the lock: the final count
     must be exact under every scheme. *)
  List.iter
    (fun scheme ->
      let m = boot ~scheme (counter_program ()) in
      for _ = 1 to 4 do
        ignore (Vm.spawn m ~fname:"worker" ~args:[ 250L ])
      done;
      (match Vm.run m with `Idle -> () | _ -> Alcotest.fail "stuck");
      Alcotest.(check int64)
        (Scheme.name scheme ^ " exact count")
        1000L (counter_value m);
      Alcotest.(check int) "ops observed" 1000 (Vm.total_ops m))
    Scheme.all

let test_determinism () =
  let run () =
    let m = boot (counter_program ()) in
    ignore (Vm.spawn m ~fname:"worker" ~args:[ 100L ]);
    ignore (Vm.spawn m ~fname:"worker" ~args:[ 100L ]);
    ignore (Vm.run m);
    Vm.clock m
  in
  Alcotest.(check int) "same seed, same simulated time" (run ()) (run ())

let test_seed_changes_interleaving () =
  let run seed =
    let m = boot ~seed (counter_program ()) in
    ignore (Vm.spawn m ~fname:"worker" ~args:[ 100L ]);
    ignore (Vm.run m);
    Vm.clock m
  in
  (* Different seeds change eviction patterns; the clock may differ
     but correctness holds (checked above).  At minimum it must run. *)
  Alcotest.(check bool) "clocks positive" true (run 1 > 0 && run 2 > 0)

let test_run_until () =
  let m = boot (counter_program ()) in
  ignore (Vm.spawn m ~fname:"worker" ~args:[ 100_000L ]);
  (match Vm.run ~until:50_000 m with
  | `Until -> ()
  | _ -> Alcotest.fail "expected `Until");
  Alcotest.(check bool) "stopped near the bound" true (Vm.clock m < 70_000)

let test_max_steps () =
  let m = boot (counter_program ()) in
  ignore (Vm.spawn m ~fname:"worker" ~args:[ 100_000L ]);
  match Vm.run ~max_steps:100 m with
  | `Max_steps -> ()
  | _ -> Alcotest.fail "expected `Max_steps"

let test_deadlock_detection () =
  (* worker a: lock 1; lock 2 — worker b: lock 2; lock 1 with enough
     spinning between to guarantee the interleaving. *)
  let mk name first second =
    let b, _ = Builder.create ~name ~nparams:1 in
    Builder.lock b (Ir.Imm first);
    Builder.intr_void b Ir.Work [ Ir.Imm 10_000L ];
    Builder.lock b (Ir.Imm second);
    Builder.unlock b (Ir.Imm second);
    Builder.unlock b (Ir.Imm first);
    Builder.ret b None;
    Builder.finish b
  in
  let prog =
    { Ir.funcs = [ ("a", mk "a" 1L 2L); ("b", mk "b" 2L 1L) ] }
  in
  let m = Vm.create (Vm.config Scheme.Origin) prog in
  ignore (Vm.spawn m ~fname:"a" ~args:[ 0L ]);
  ignore (Vm.spawn m ~fname:"b" ~args:[ 0L ]);
  match Vm.run m with
  | `Deadlock -> ()
  | _ -> Alcotest.fail "expected deadlock"

let test_unlock_foreign_lock_rejected () =
  let b, _ = Builder.create ~name:"w" ~nparams:1 in
  Builder.lock b (Ir.Imm 5L);
  Builder.intr_void b Ir.Work [ Ir.Imm 10_000L ];
  Builder.unlock b (Ir.Imm 5L);
  Builder.ret b None;
  let w = Builder.finish b in
  let b, _ = Builder.create ~name:"rogue" ~nparams:1 in
  Builder.intr_void b Ir.Work [ Ir.Imm 100L ];
  (* Statically balanced (one acquire, one release) but the release
     targets a mutex held by the other thread: a runtime error. *)
  Builder.lock b (Ir.Imm 6L);
  Builder.unlock b (Ir.Imm 5L);
  Builder.ret b None;
  let rogue = Builder.finish b in
  let m = Vm.create (Vm.config Scheme.Origin) { Ir.funcs = [ ("w", w); ("rogue", rogue) ] } in
  ignore (Vm.spawn m ~fname:"w" ~args:[ 0L ]);
  ignore (Vm.spawn m ~fname:"rogue" ~args:[ 0L ]);
  match Vm.run m with
  | exception Vm.Vm_error _ -> ()
  | _ -> Alcotest.fail "expected Vm_error"

let test_stack_overflow_detected () =
  let b, _ = Builder.create ~name:"w" ~nparams:1 in
  ignore (Builder.alloca b 100_000);
  Builder.ret b None;
  let m = Vm.create (Vm.config Scheme.Origin) { Ir.funcs = [ ("w", Builder.finish b) ] } in
  ignore (Vm.spawn m ~fname:"w" ~args:[ 0L ]);
  match Vm.run m with
  | exception Vm.Vm_error _ -> ()
  | _ -> Alcotest.fail "expected stack overflow"

let test_calls_and_stack () =
  (* g(x) spills x to a stack slot and reloads it; f sums g(1)+g(2). *)
  let b, ps = Builder.create ~name:"g" ~nparams:1 in
  let x = List.nth ps 0 in
  let slot = Builder.alloca b 2 in
  Builder.store b Ir.Stack (Ir.Reg slot) 1 (Ir.Reg x);
  let y = Builder.load b Ir.Stack (Ir.Reg slot) 1 in
  let y2 = Builder.bin b Ir.Mul (Ir.Reg y) (Ir.Imm 10L) in
  Builder.ret b (Some (Ir.Reg y2));
  let g = Builder.finish b in
  let b, _ = Builder.create ~name:"w" ~nparams:1 in
  let a = Builder.call b "g" [ Ir.Imm 1L ] in
  let c = Builder.call b "g" [ Ir.Imm 2L ] in
  let s = Builder.bin b Ir.Add (Ir.Reg a) (Ir.Reg c) in
  Wcommon.observe b (Ir.Reg s);
  Builder.ret b None;
  let w = Builder.finish b in
  List.iter
    (fun scheme ->
      (* Stack lives in NVM for resumption schemes, DRAM otherwise. *)
      let m = Vm.create (Vm.config scheme) { Ir.funcs = [ ("g", g); ("w", w) ] } in
      let t = Vm.spawn m ~fname:"w" ~args:[ 0L ] in
      (match Vm.run m with `Idle -> () | _ -> Alcotest.fail "stuck");
      Alcotest.(check (list int64)) "g(1)*10 + g(2)*10" [ 30L ] (Vm.observations t))
    Scheme.[ Ido; Atlas; Origin ]

let test_intrinsics () =
  let b, _ = Builder.create ~name:"w" ~nparams:1 in
  let tid = Builder.intr b Ir.Thread_id [] in
  Wcommon.observe b (Ir.Reg tid);
  let r = Builder.intr b Ir.Rand [ Ir.Imm 10L ] in
  let ok = Builder.bin b Ir.Lt (Ir.Reg r) (Ir.Imm 10L) in
  Wcommon.assert_nz b (Ir.Reg ok);
  let blk = Builder.intr b Ir.Nv_alloc [ Ir.Imm 4L ] in
  Builder.store b Ir.Persistent (Ir.Reg blk) 3 (Ir.Imm 9L);
  let v = Builder.load b Ir.Persistent (Ir.Reg blk) 3 in
  Wcommon.observe b (Ir.Reg v);
  Builder.intr_void b Ir.Nv_free [ Ir.Reg blk ];
  Builder.ret b None;
  let m = Vm.create (Vm.config Scheme.Origin) { Ir.funcs = [ ("w", Builder.finish b) ] } in
  let t = Vm.spawn m ~fname:"w" ~args:[ 0L ] in
  (match Vm.run m with `Idle -> () | _ -> Alcotest.fail "stuck");
  Alcotest.(check (list int64)) "tid then stored value" [ 0L; 9L ] (Vm.observations t)

let test_work_advances_clock () =
  let b, _ = Builder.create ~name:"w" ~nparams:1 in
  Builder.intr_void b Ir.Work [ Ir.Imm 5_000L ];
  Builder.ret b None;
  let m = Vm.create (Vm.config Scheme.Origin) { Ir.funcs = [ ("w", Builder.finish b) ] } in
  ignore (Vm.spawn m ~fname:"w" ~args:[ 0L ]);
  ignore (Vm.run m);
  Alcotest.(check bool) "clock >= work" true (Vm.clock m >= 5_000)

let test_div_by_zero_is_zero () =
  let b, _ = Builder.create ~name:"w" ~nparams:1 in
  let d = Builder.bin b Ir.Div (Ir.Imm 7L) (Ir.Imm 0L) in
  let r = Builder.bin b Ir.Rem (Ir.Imm 7L) (Ir.Imm 0L) in
  Wcommon.observe b (Ir.Reg d);
  Wcommon.observe b (Ir.Reg r);
  Builder.ret b None;
  let m = Vm.create (Vm.config Scheme.Origin) { Ir.funcs = [ ("w", Builder.finish b) ] } in
  let t = Vm.spawn m ~fname:"w" ~args:[ 0L ] in
  ignore (Vm.run m);
  Alcotest.(check (list int64)) "defined as zero" [ 0L; 0L ] (Vm.observations t)

let test_assert_traps () =
  let b, _ = Builder.create ~name:"w" ~nparams:1 in
  Wcommon.assert_nz b (Ir.Imm 0L);
  Builder.ret b None;
  let m = Vm.create (Vm.config Scheme.Origin) { Ir.funcs = [ ("w", Builder.finish b) ] } in
  ignore (Vm.spawn m ~fname:"w" ~args:[ 0L ]);
  match Vm.run m with
  | exception Vm.Vm_error _ -> ()
  | _ -> Alcotest.fail "expected trap"

let test_lock_handoff_fifo () =
  (* Three contenders on one lock must all finish (no starvation). *)
  let m = boot (counter_program ()) in
  for _ = 1 to 3 do
    ignore (Vm.spawn m ~fname:"worker" ~args:[ 50L ])
  done;
  (match Vm.run m with `Idle -> () | _ -> Alcotest.fail "stuck");
  Alcotest.(check int) "all three did their ops" 150 (Vm.total_ops m)

let test_tracer () =
  let m = boot (counter_program ()) in
  let lines = ref [] in
  Ido_vm.Vm.set_tracer m (Some (fun l -> lines := l :: !lines));
  ignore (Vm.spawn m ~fname:"worker" ~args:[ 3L ]);
  (match Vm.run m with `Idle -> () | _ -> Alcotest.fail "stuck");
  Ido_vm.Vm.set_tracer m None;
  let all = String.concat "\n" !lines in
  let has frag =
    let n = String.length frag in
    let rec go i =
      i + n <= String.length all && (String.sub all i n = frag || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "traced instructions" true (List.length !lines > 20);
  Alcotest.(check bool) "shows locks" true (has "lock r");
  Alcotest.(check bool) "shows hooks" true (has "!fase_enter");
  Alcotest.(check bool) "marks FASE membership" true (has "[FASE]")

let test_image_pc_roundtrip () =
  (* For every scheme's instrumentation: every instruction slot encodes
     to a dense pc and back, and the resolved entry agrees with the IR
     at every position (pc, region metadata, call targets). *)
  let module Image = Ido_vm.Image in
  let uniq = List.sort_uniq compare in
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  List.iter
    (fun scheme ->
      let workload = if scheme = Scheme.Nvml then "objstore" else "olist" in
      let prog =
        Ido_instrument.Instrument.instrument scheme
          (Ido_workloads.Workload.named workload)
      in
      let image = Image.build prog in
      let where = Scheme.name scheme in
      List.iter
        (fun (fname, (f : Ir.func)) ->
          let e = Image.entry image fname in
          Alcotest.(check string) "entry name" fname (Image.name e);
          Alcotest.(check bool) "entry IR" true (Image.ir e == f);
          Array.iteri
            (fun b (blk : Ir.block) ->
              let n = Array.length blk.Ir.instrs in
              for i = 0 to n do
                let pos = { Ir.blk = b; idx = i } in
                let pc = Image.pc e ~blk:b ~idx:i in
                Alcotest.(check bool) "pc positive" true (pc > 0);
                let fname', pos' = Image.pos_of_pc image pc in
                Alcotest.(check string) "func roundtrip" fname fname';
                Alcotest.(check bool) "pos roundtrip" true (pos = pos');
                match if i < n then Some blk.Ir.instrs.(i) else None with
                | Some (Ir.Call { func; _ }) ->
                    let c = Image.callee e ~blk:b ~idx:i in
                    Alcotest.(check string) (where ^ " call target") func
                      (Image.name c);
                    Alcotest.(check bool) "callee IR" true
                      (Image.ir c == List.assoc func prog.Ir.funcs)
                | Some (Ir.Hook (Ir.Hregion rh)) ->
                    let meta = Image.region e rh.Ir.region_id in
                    Alcotest.(check int) (where ^ " live-in count")
                      (List.length rh.Ir.live_in) meta.Image.n_live_in;
                    Alcotest.(check (list int)) "live-in set"
                      (uniq rh.Ir.live_in)
                      (Array.to_list meta.Image.live_in_sorted);
                    Alcotest.(check (list int)) "first-boundary set"
                      (uniq (rh.Ir.live_in @ rh.Ir.out_regs))
                      meta.Image.first_regs;
                    Alcotest.(check (list int)) "out set" (uniq rh.Ir.out_regs)
                      meta.Image.out_sorted
                | _ ->
                    Alcotest.(check bool) "no call target" true
                      (raises (fun () -> Image.callee e ~blk:b ~idx:i))
              done;
              Alcotest.(check bool) "slot past the terminator" true
                (raises (fun () -> Image.pc e ~blk:b ~idx:(n + 1))))
            f.Ir.blocks;
          Alcotest.(check bool) "block past the end" true
            (raises (fun () ->
                 Image.pc e ~blk:(Array.length f.Ir.blocks) ~idx:0));
          Alcotest.(check bool) "unknown region" true
            (raises (fun () -> Image.region e 100_000)))
        prog.Ir.funcs;
      Alcotest.(check bool) "unknown function" true
        (raises (fun () -> Image.entry image "no-such-function"));
      Alcotest.check_raises "pc 0 invalid"
        (Invalid_argument "Image.pos_of_pc: bad pc 0") (fun () ->
          ignore (Image.pos_of_pc image 0)))
    Scheme.all

let test_spawn_arity () =
  (* Spawn binds arguments exactly as a validated Call does: a missing
     or extra argument is an error, not a silent zero or drop. *)
  let m = Vm.create (Vm.config Scheme.Ido) (counter_program ()) in
  List.iter
    (fun args ->
      Alcotest.check_raises "arity mismatch"
        (Invalid_argument
           (Printf.sprintf "Vm.spawn: worker takes 1 argument(s), got %d"
              (List.length args)))
        (fun () -> ignore (Vm.spawn m ~fname:"worker" ~args)))
    [ []; [ 1L; 2L ] ];
  ignore (Vm.spawn m ~fname:"init" ~args:[]);
  (match Vm.run m with `Idle -> () | _ -> Alcotest.fail "stuck");
  ignore (Vm.spawn m ~fname:"worker" ~args:[ 3L ]);
  (match Vm.run m with `Idle -> () | _ -> Alcotest.fail "stuck");
  Alcotest.(check int64) "three increments" 3L (counter_value m)

let test_atlas_spawn_footprint () =
  (* A thread's undo arena is 16384 records x 4 words = 128 pages, but
     spawning zeroes it without materialising untouched pages: only
     the pages the arena's header and first records write are
     private. *)
  let m =
    Vm.create (Vm.config Scheme.Atlas) (Ido_workloads.Workload.named "queue")
  in
  ignore (Vm.spawn m ~fname:"init" ~args:[]);
  (match Vm.run m with `Idle -> () | _ -> Alcotest.fail "stuck");
  let pm = Vm.pmem m in
  let before = Ido_nvm.Pmem.materialised_pages pm in
  for _ = 1 to 16 do
    ignore (Vm.spawn m ~fname:"worker" ~args:[ 20L ])
  done;
  let grown = Ido_nvm.Pmem.materialised_pages pm - before in
  Alcotest.(check bool)
    (Printf.sprintf "16 spawns materialised %d pages, at most 4 each" grown)
    true (grown <= 4 * 16);
  match Vm.run m with `Idle -> () | _ -> Alcotest.fail "stuck"

let test_lock_array_overflow () =
  (* More simultaneously held locks than the lock_array has slots is a
     runtime error, not silent corruption. *)
  let b, _ = Builder.create ~name:"w" ~nparams:1 in
  for i = 1 to 17 do
    Builder.lock b (Ir.Imm (Int64.of_int i))
  done;
  for i = 17 downto 1 do
    Builder.unlock b (Ir.Imm (Int64.of_int i))
  done;
  Builder.ret b None;
  let m =
    Vm.create (Vm.config Scheme.Ido) { Ir.funcs = [ ("w", Builder.finish b) ] }
  in
  ignore (Vm.spawn m ~fname:"w" ~args:[ 0L ]);
  match Vm.run m with
  | exception Ido_runtime.Lognode.Log_overflow ov ->
      Alcotest.(check string) "scheme" "ido" ov.Ido_runtime.Lognode.scheme;
      Alcotest.(check string) "which log" "lock_array" ov.Ido_runtime.Lognode.log;
      Alcotest.(check int) "capacity" 16 ov.Ido_runtime.Lognode.capacity;
      Alcotest.(check int) "thread" 0 ov.Ido_runtime.Lognode.tid
  | _ -> Alcotest.fail "expected lock_array overflow"

let test_deep_nesting_within_capacity () =
  (* Sixteen nested locks is exactly the capacity: must work and
     recover. *)
  let b, _ = Builder.create ~name:"w16" ~nparams:1 in
  let cell = Wcommon.get_root b 0 in
  for i = 1 to 16 do
    Builder.lock b (Ir.Imm (Int64.of_int (1000 + i)))
  done;
  let c = Builder.load b Ir.Persistent (Ir.Reg cell) 0 in
  let c1 = Builder.bin b Ir.Add (Ir.Reg c) (Ir.Imm 1L) in
  Builder.store b Ir.Persistent (Ir.Reg cell) 0 (Ir.Reg c1);
  for i = 16 downto 1 do
    Builder.unlock b (Ir.Imm (Int64.of_int (1000 + i)))
  done;
  Builder.ret b None;
  let w = Builder.finish b in
  let prog = counter_program () in
  let prog = { Ir.funcs = prog.Ir.funcs @ [ ("w16", w) ] } in
  let m = Vm.create (Vm.config Scheme.Ido) prog in
  let _ = Vm.spawn m ~fname:"init" ~args:[] in
  ignore (Vm.run m);
  Vm.flush_all m;
  ignore (Vm.spawn m ~fname:"w16" ~args:[ 0L ]);
  (match Vm.run m with `Idle -> () | _ -> Alcotest.fail "stuck");
  Alcotest.(check int64) "increment applied" 1L (counter_value m)

let test_transient_bounds () =
  (* A negative transient address is a program fault for loads and
     stores alike, reported as [Vm_error] like the other spaces. *)
  let run_one name body =
    let b, _ = Builder.create ~name:"w" ~nparams:1 in
    body b;
    Builder.ret b None;
    let m =
      Vm.create (Vm.config Scheme.Ido) { Ir.funcs = [ ("w", Builder.finish b) ] }
    in
    ignore (Vm.spawn m ~fname:"w" ~args:[ 0L ]);
    match Vm.run m with
    | exception Vm.Vm_error msg ->
        Alcotest.(check string) name "transient address -5 out of range" msg
    | _ -> Alcotest.fail (name ^ ": expected Vm_error")
  in
  run_one "load" (fun b ->
      let v = Builder.load b Ir.Transient (Ir.Imm (-5L)) 0 in
      Wcommon.observe b (Ir.Reg v));
  run_one "store" (fun b ->
      Builder.store b Ir.Transient (Ir.Imm (-8L)) 3 (Ir.Imm 1L))

(* Random straight-line programs over full-range 64-bit words, run on
   the machine and on a boxed [Int64] reference.  Every register and
   memory slot is observed at the end, so a byte-offset or sign bug in
   the unboxed register file or memory shows as a wrong observation. *)
type operand = R of int | I of int64

type sl_op =
  | Sbin of int * Ir.binop * operand * operand
  | Smov of int * operand
  | Sstore of int * operand
  | Sload of int * int
  | Sobserve of operand

let sl_regs = 5
let sl_slots = 12

let binops =
  Ir.
    [ (Add, "+"); (Sub, "-"); (Mul, "*"); (Div, "/"); (Rem, "%"); (And, "&");
      (Or, "|"); (Xor, "^"); (Shl, "<<"); (Shr, ">>>"); (Eq, "=="); (Ne, "!=");
      (Lt, "<"); (Le, "<="); (Gt, ">"); (Ge, ">=") ]

let gen_word =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          oneofl
            [ Int64.min_int; Int64.max_int; -1L; 0L; 1L; 2L; 63L; 64L; 65L;
              127L; 128L; 0x0102030405060708L; 0x8000000000000001L;
              0xFF00FF00FF00FF00L; 0x7FFFFFFF00000000L ] );
        (3, ui64);
        (1, map Int64.of_int small_signed_int);
      ])

let gen_sl_op =
  QCheck.Gen.(
    let reg = int_bound (sl_regs - 1) and slot = int_bound (sl_slots - 1) in
    let operand =
      frequency [ (2, map (fun r -> R r) reg); (1, map (fun w -> I w) gen_word) ]
    in
    frequency
      [
        ( 5,
          map3
            (fun d (op, a) b -> Sbin (d, op, a, b))
            reg (pair (map fst (oneofl binops)) operand) operand );
        (* Division by zero and by -1 at the extremes, shifts by 64 or
           more: cases random words rarely hit. *)
        ( 2,
          map3
            (fun d (op, _) (a, b) -> Sbin (d, op, I a, I b))
            reg (oneofl binops)
            (oneofl
               [ (Int64.min_int, -1L); (Int64.min_int, 0L); (-7L, 0L);
                 (Int64.max_int, -1L); (1L, 64L); (-1L, 65L);
                 (0x0102030405060708L, 127L); (0x0102030405060708L, -1L) ]) );
        (1, map2 (fun d a -> Smov (d, a)) reg operand);
        (2, map2 (fun s a -> Sstore (s, a)) slot operand);
        (2, map2 (fun d s -> Sload (d, s)) reg slot);
        (1, map (fun a -> Sobserve a) operand);
      ])

(* The memory configurations to cover: persistent memory, the stack in
   pmem (ido) and in DRAM (atlas), and transient memory. *)
let sl_spaces =
  [ (Ir.Persistent, Scheme.Ido); (Ir.Stack, Scheme.Ido);
    (Ir.Stack, Scheme.Atlas); (Ir.Transient, Scheme.Ido) ]

let ref_binop op a b =
  let bool c = if c then 1L else 0L in
  let shift b = Int64.to_int b land 63 in
  match (op : Ir.binop) with
  | Add -> Int64.add a b
  | Sub -> Int64.sub a b
  | Mul -> Int64.mul a b
  | Div -> if b = 0L then 0L else Int64.div a b
  | Rem -> if b = 0L then 0L else Int64.rem a b
  | And -> Int64.logand a b
  | Or -> Int64.logor a b
  | Xor -> Int64.logxor a b
  | Shl -> Int64.shift_left a (shift b)
  | Shr -> Int64.shift_right_logical a (shift b)
  | Eq -> bool (Int64.equal a b)
  | Ne -> bool (not (Int64.equal a b))
  | Lt -> bool (Int64.compare a b < 0)
  | Le -> bool (Int64.compare a b <= 0)
  | Gt -> bool (Int64.compare a b > 0)
  | Ge -> bool (Int64.compare a b >= 0)

let reference init ops =
  let regs = Array.of_list init and mem = Array.make sl_slots 0L in
  let value = function R r -> regs.(r) | I w -> w in
  let obs = ref [] in
  List.iter
    (function
      | Sbin (d, op, a, b) -> regs.(d) <- ref_binop op (value a) (value b)
      | Smov (d, a) -> regs.(d) <- value a
      | Sstore (s, a) -> mem.(s) <- value a
      | Sload (d, s) -> regs.(d) <- mem.(s)
      | Sobserve a -> obs := value a :: !obs)
    ops;
  Array.iter (fun v -> obs := v :: !obs) regs;
  Array.iter (fun v -> obs := v :: !obs) mem;
  List.rev !obs

let machine (space, scheme) init ops =
  let b, _ = Builder.create ~name:"w" ~nparams:1 in
  let regs = Array.of_list (List.map (fun w -> Builder.mov b (Ir.Imm w)) init) in
  let operand = function R r -> Ir.Reg regs.(r) | I w -> Ir.Imm w in
  let base =
    match (space : Ir.space) with
    | Persistent -> Ir.Reg (Builder.intr b Ir.Nv_alloc [ Ir.Imm (Int64.of_int sl_slots) ])
    | Stack -> Ir.Reg (Builder.alloca b sl_slots)
    | Transient -> Ir.Imm 40L
  in
  List.iter
    (function
      | Sbin (d, op, a, c) -> Builder.assign_bin b regs.(d) op (operand a) (operand c)
      | Smov (d, a) -> Builder.assign b regs.(d) (operand a)
      | Sstore (s, a) -> Builder.store b space base s (operand a)
      | Sload (d, s) -> Builder.assign b regs.(d) (Ir.Reg (Builder.load b space base s))
      | Sobserve a -> Wcommon.observe b (operand a))
    ops;
  Array.iter (fun r -> Wcommon.observe b (Ir.Reg r)) regs;
  for s = 0 to sl_slots - 1 do
    Wcommon.observe b (Ir.Reg (Builder.load b space base s))
  done;
  Builder.ret b None;
  let m = Vm.create (Vm.config scheme) { Ir.funcs = [ ("w", Builder.finish b) ] } in
  let t = Vm.spawn m ~fname:"w" ~args:[ 0L ] in
  (match Vm.run m with `Idle -> () | _ -> Alcotest.fail "stuck");
  Vm.observations t

let show_operand = function R r -> Printf.sprintf "r%d" r | I w -> Printf.sprintf "%LdL" w

let show_sl_op = function
  | Sbin (d, op, a, b) ->
      Printf.sprintf "r%d := %s %s %s" d (show_operand a) (List.assoc op binops)
        (show_operand b)
  | Smov (d, a) -> Printf.sprintf "r%d := %s" d (show_operand a)
  | Sstore (s, a) -> Printf.sprintf "[%d] := %s" s (show_operand a)
  | Sload (d, s) -> Printf.sprintf "r%d := [%d]" d s
  | Sobserve a -> Printf.sprintf "observe %s" (show_operand a)

let prop_straight_line_matches_int64 =
  QCheck.Test.make ~name:"full-range straight-line = Int64 reference" ~count:200
    (QCheck.make
       ~print:(fun (k, init, ops) ->
         Printf.sprintf "config %d, init [%s]\n%s" k
           (String.concat "; " (List.map Int64.to_string init))
           (String.concat "\n" (List.map show_sl_op ops)))
       QCheck.Gen.(
         triple
           (int_bound (List.length sl_spaces - 1))
           (list_repeat sl_regs gen_word)
           (list_size (int_range 1 40) gen_sl_op)))
    (fun (k, init, ops) ->
      machine (List.nth sl_spaces k) init ops = reference init ops)

(* Allocation guard (native code only, where words are unboxed): an
   uninstrumented Bin/Mov/Cbr/Br loop allocates nothing per step, so
   100k steps allocate no more than the run's constant set-up. *)
let test_step_allocates_nothing () =
  if Sys.backend_type = Sys.Native then begin
    let b, ps = Builder.create ~name:"w" ~nparams:1 in
    let acc = Builder.mov b (Ir.Imm 0x0102030405060708L) in
    Wcommon.for_loop b (Ir.Reg (List.nth ps 0)) (fun i ->
        Builder.assign_bin b acc Ir.Mul (Ir.Reg acc) (Ir.Imm 3L);
        Builder.assign_bin b acc Ir.Xor (Ir.Reg acc) (Ir.Reg i);
        Builder.assign b acc (Ir.Reg acc));
    Builder.ret b None;
    let m =
      Vm.create (Vm.config Scheme.Origin) { Ir.funcs = [ ("w", Builder.finish b) ] }
    in
    ignore (Vm.spawn m ~fname:"w" ~args:[ Int64.max_int ]);
    ignore (Vm.run ~max_steps:100 m);
    let before = Gc.minor_words () in
    let outcome = Vm.run ~max_steps:100_000 m in
    let words = Gc.minor_words () -. before in
    Alcotest.(check bool) "ran 100k steps" true (outcome = `Max_steps);
    Alcotest.(check bool)
      (Printf.sprintf "%.0f minor words over 100k steps" words)
      true (words < 100.)
  end

(* ------------------------------------------------------------------ *)
(* Run queue against the linear scan *)

module State = Ido_vm.State
module Vec = Ido_util.Vec

(* The scheduler as it was before the run queue, kept as the reference:
   each burst scans every thread record for the earliest runnable
   thread (the first in spawn order on a tie) and, as the burst
   horizon, the earliest clock among the others. *)
let reference_run ?until ?(max_steps = max_int) (m : State.t) =
  let steps = ref 0 in
  let rec loop () =
    if !steps >= max_steps then `Max_steps
    else begin
      let best = ref (-1) and best_clock = ref 0 and horizon = ref max_int in
      for i = 0 to Vec.length m.threads - 1 do
        let t = Vec.get m.threads i in
        if t.State.status = State.Runnable then
          if !best < 0 || t.clock < !best_clock then begin
            if !best >= 0 then horizon := !best_clock;
            best := i;
            best_clock := t.clock
          end
          else if t.clock < !horizon then horizon := t.clock
      done;
      if !best < 0 then
        if Vec.exists (fun t -> t.State.status = State.Blocked) m.threads then
          `Deadlock
        else `Idle
      else
        let t = Vec.get m.threads !best in
        match until with
        | Some u when t.clock >= u -> `Until
        | _ ->
            let limit =
              match until with Some u -> min !horizon u | None -> !horizon
            in
            while t.status = State.Runnable && t.clock <= limit && !steps < max_steps do
              Ido_vm.Interp.step m t;
              incr steps
            done;
            loop ()
    end
  in
  loop ()

(* Lock-contending segments over [sched_cells] persistent cells.  Locks
   are always taken in ascending id order, so a run cannot deadlock. *)
type sched_seg =
  | Locked of int * int  (* lock, cell: increment under the lock *)
  | Nested of int * int * int  (* outer < inner lock, cell *)
  | Hand_over_hand of int * int * int  (* first < second lock, cell *)
  | Spin of int  (* up to this much work, drawn per thread *)

type sched_slice = Until of int | Steps of int | Spawn | Crash_recover

let sched_cells = 4
let sched_schemes = Scheme.[ Ido; Atlas; Justdo; Mnemosyne; Origin ]

let sched_program segs =
  let b, _ = Builder.create ~name:"init" ~nparams:0 in
  let cells = Wcommon.alloc_node b sched_cells [] in
  Wcommon.set_root b 0 (Ir.Reg cells);
  Builder.ret b None;
  let init = Builder.finish b in
  let b, ps = Builder.create ~name:"worker" ~nparams:1 in
  let cells = Wcommon.get_root b 0 in
  let bump c =
    let v = Builder.load b Ir.Persistent (Ir.Reg cells) c in
    Builder.store b Ir.Persistent (Ir.Reg cells) c
      (Ir.Reg (Builder.bin b Ir.Add (Ir.Reg v) (Ir.Imm 1L)))
  in
  let lock l = Builder.lock b (Ir.Imm (Int64.of_int (l + 1)))
  and unlock l = Builder.unlock b (Ir.Imm (Int64.of_int (l + 1))) in
  Wcommon.for_loop b (Ir.Reg (List.hd ps)) (fun _ ->
      List.iter
        (function
          | Locked (l, c) -> lock l; bump c; unlock l
          | Nested (l1, l2, c) -> lock l1; lock l2; bump c; unlock l2; unlock l1
          | Hand_over_hand (l1, l2, c) -> lock l1; lock l2; unlock l1; bump c; unlock l2
          | Spin k -> Builder.intr_void b Ir.Work [ Ir.Reg (Wcommon.rand b k) ])
        segs;
      Wcommon.observe b (Ir.Imm 1L));
  Builder.ret b None;
  Wcommon.program [ ("init", init); ("worker", Builder.finish b) ]

(* The tracer stream (tid, clock and pc of every step) and the outcome
   of every call of [runner] over one sliced run.  Slices stop a run
   early at a time or a step budget, spawn one more worker between
   calls, or crash the machine and recover it (recovery runs the
   queue) before a fresh set of workers starts. *)
let drive runner (k, nthreads, segs, iters, seed, slices) =
  let m =
    Vm.create { (Vm.config (List.nth sched_schemes k)) with seed } (sched_program segs)
  in
  let trace = ref [] and outcomes = ref [] in
  Vm.set_tracer m (Some (fun line -> trace := line :: !trace));
  let record f =
    let o =
      match f () with
      | `Idle -> "idle"
      | `Until -> "until"
      | `Max_steps -> "max_steps"
      | `Deadlock -> "deadlock"
      | exception e -> Printexc.to_string e
    in
    outcomes := o :: !outcomes
  in
  let spawn_workers () =
    for _ = 1 to nthreads do
      ignore (Vm.spawn m ~fname:"worker" ~args:[ Int64.of_int iters ])
    done
  in
  ignore (Vm.spawn m ~fname:"init" ~args:[]);
  record (fun () -> runner ?until:None ?max_steps:None m);
  spawn_workers ();
  List.iter
    (function
      | Until d -> record (fun () -> runner ?until:(Some (Vm.clock m + d)) ?max_steps:None m)
      | Steps n -> record (fun () -> runner ?until:None ?max_steps:(Some n) m)
      | Spawn -> ignore (Vm.spawn m ~fname:"worker" ~args:[ Int64.of_int iters ])
      | Crash_recover ->
          Vm.crash m;
          record (fun () -> ignore (Vm.recover m); `Idle);
          spawn_workers ())
    slices;
  record (fun () -> runner ?until:None ?max_steps:None m);
  (List.rev !trace, List.rev !outcomes)

let gen_sched_case =
  QCheck.Gen.(
    let lock = int_bound 3 and cell = int_bound (sched_cells - 1) in
    let two_locks = map (fun (a, d) -> (a, a + 1 + d)) (pair (int_bound 2) (int_bound 1)) in
    let seg =
      frequency
        [
          (3, map2 (fun l c -> Locked (l, c)) lock cell);
          (2, map2 (fun (a, b) c -> Nested (a, min b 3, c)) two_locks cell);
          (2, map2 (fun (a, b) c -> Hand_over_hand (a, min b 3, c)) two_locks cell);
          (2, map (fun k -> Spin k) (oneofl [ 1; 3; 40; 400 ]));
        ]
    in
    let slice =
      frequency
        [
          (3, map (fun d -> Until d) (int_bound 3000));
          (3, map (fun n -> Steps n) (int_range 1 200));
          (1, return Spawn);
          (1, return Crash_recover);
        ]
    in
    tup6
      (int_bound (List.length sched_schemes - 1))
      (int_range 1 17)
      (list_size (int_range 1 4) seg)
      (int_range 1 6) (int_bound 1000)
      (list_size (int_bound 4) slice))

let show_sched_case (k, n, segs, iters, seed, slices) =
  let seg = function
    | Locked (l, c) -> Printf.sprintf "locked(%d,%d)" l c
    | Nested (a, b, c) -> Printf.sprintf "nested(%d,%d,%d)" a b c
    | Hand_over_hand (a, b, c) -> Printf.sprintf "hoh(%d,%d,%d)" a b c
    | Spin k -> Printf.sprintf "spin %d" k
  and slice = function
    | Until d -> Printf.sprintf "until +%d" d
    | Steps n -> Printf.sprintf "steps %d" n
    | Spawn -> "spawn"
    | Crash_recover -> "crash+recover"
  in
  Printf.sprintf "%s, %d threads x %d iters, seed %d\nbody: %s\nslices: %s"
    (Scheme.name (List.nth sched_schemes k))
    n iters seed
    (String.concat "; " (List.map seg segs))
    (String.concat "; " (List.map slice slices))

let prop_run_queue_matches_scan =
  QCheck.Test.make ~name:"run queue = linear-scan scheduler" ~count:200
    (QCheck.make ~print:show_sched_case gen_sched_case)
    (fun case ->
      drive (fun ?until ?max_steps m -> Vm.run ?until ?max_steps m) case
      = drive (fun ?until ?max_steps m -> reference_run ?until ?max_steps m) case)

(* Allocation guard for the hook path (native code only): a
   hand-over-hand olist run, where lock records and region boundaries
   make up a third of the steps, stays under a words-per-step bound
   under each lock-based scheme.  At the bound's introduction the runs
   allocated 0.19 (ido), 0.68 (atlas) and 0.14 (justdo) words per step;
   the word-boxing hook path they replaced allocated 6-7. *)
let olist_words_per_step = 1.5

let test_olist_allocation_bound () =
  if Sys.backend_type = Sys.Native then
    List.iter
      (fun scheme ->
        let m = boot ~scheme (Ido_workloads.Workload.named "olist") in
        for _ = 1 to 4 do
          ignore (Vm.spawn m ~fname:"worker" ~args:[ 100L ])
        done;
        let steps0 = Vec.fold_left (fun a (t : State.thread) -> a + t.steps) 0 m.threads in
        let before = Gc.minor_words () in
        (match Vm.run m with `Idle -> () | _ -> Alcotest.fail "olist stuck");
        let words = Gc.minor_words () -. before in
        let steps =
          Vec.fold_left (fun a (t : State.thread) -> a + t.steps) 0 m.threads - steps0
        in
        let per_step = words /. float_of_int steps in
        Alcotest.(check bool)
          (Printf.sprintf "%s: %.2f words per step over %d steps" (Scheme.name scheme)
             per_step steps)
          true (per_step < olist_words_per_step))
      Scheme.[ Ido; Atlas; Justdo ]

(* A crash image restored into a machine that has run is the crash
   itself: every counter and generator a crash keeps (the clock floor
   raised by a reap, the thread, FASE, sequence and commit counters,
   the machine and eviction generators), every persisted word, and
   everything after recovery — including a fresh worker phase, whose
   spawns draw from the restored generator.  An NV-cache machine keeps
   its whole cache. *)
exception Imaged

let test_crash_image_is_crash () =
  let program = Ido_workloads.Workload.named "queue" in
  List.iter
    (fun (scheme, latency, k) ->
      let config =
        { (Vm.config scheme) with
          latency; cache_lines = 4; pmem_words = 1 lsl 16; undo_cap = 1 lsl 9 }
      in
      let workers m ops =
        for _ = 1 to 2 do
          ignore (Vm.spawn m ~fname:"worker" ~args:[ ops ])
        done
      in
      let a = Vm.create config program in
      ignore (Vm.spawn a ~fname:"init" ~args:[]);
      ignore (Vm.run a);
      Vm.flush_all a;
      workers a 3L;
      ignore (Vm.run a);
      Vm.reap a;
      workers a 4L;
      let image = ref None and count = ref 0 in
      Vm.set_event_hook a
        (Some
           (fun _ ->
             if !count = k then begin
               image := Some (Vm.crash_image a);
               raise Imaged
             end;
             incr count));
      (try ignore (Vm.run a) with Imaged -> ());
      Vm.set_event_hook a None;
      let image =
        match !image with Some i -> i | None -> Vm.crash_image a
      in
      Vm.crash a;
      let b = Vm.create config program in
      ignore (Vm.spawn b ~fname:"init" ~args:[]);
      ignore (Vm.run b);
      Vm.restore_crashed b image;
      let at =
        Printf.sprintf "%s nv=%b k=%d" (Scheme.name scheme)
          latency.Ido_nvm.Latency.nv_caches k
      in
      let fields (m : State.t) =
        [ m.State.clock_floor; m.State.next_tid; m.State.env.Protocol.seq;
          m.State.commit_version; m.State.total_ops; m.State.next_fase_id;
          Bool.to_int m.State.crashed; Vec.length m.State.threads;
          Int64.to_int (Ido_util.Rng.next64 (Ido_util.Rng.copy m.State.rng));
          Ido_nvm.Pmem.dirty_lines m.State.pmem; Vm.clock m ]
      in
      let same what =
        let at = Printf.sprintf "%s %s" at what in
        let pa = Vm.pmem a and pb = Vm.pmem b in
        Alcotest.(check (list int)) (at ^ ": machine") (fields a) (fields b);
        Alcotest.(check bool) (at ^ ": pmem counters") true
          (Ido_nvm.Pmem.counters pa = Ido_nvm.Pmem.counters pb);
        for w = 0 to config.pmem_words - 1 do
          if Ido_nvm.Pmem.persisted pa w <> Ido_nvm.Pmem.persisted pb w then
            Alcotest.failf "%s: word %d differs" at w
        done
      in
      same "crashed";
      Alcotest.(check bool) (at ^ " recovery stats") true
        (Vm.recover a = Vm.recover b);
      same "recovered";
      List.iter
        (fun m ->
          workers m 3L;
          ignore (Vm.run m))
        [ a; b ];
      same "rerun")
    (List.concat_map
       (fun scheme ->
         List.concat_map
           (fun latency ->
             List.map (fun k -> (scheme, latency, k)) [ 0; 60; max_int ])
           Ido_nvm.Latency.[ default; nv_cache_machine ])
       Scheme.[ Ido; Justdo; Atlas; Mnemosyne; Nvthreads; Origin ])

let suites =
  [
    ( "vm",
      [
        Alcotest.test_case "mutual exclusion (all schemes)" `Quick
          test_mutual_exclusion_all_schemes;
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_interleaving;
        Alcotest.test_case "run until" `Quick test_run_until;
        Alcotest.test_case "max steps" `Quick test_max_steps;
        Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
        Alcotest.test_case "foreign unlock rejected" `Quick
          test_unlock_foreign_lock_rejected;
        Alcotest.test_case "stack overflow" `Quick test_stack_overflow_detected;
        Alcotest.test_case "calls and stack slots" `Quick test_calls_and_stack;
        Alcotest.test_case "intrinsics" `Quick test_intrinsics;
        Alcotest.test_case "work cost" `Quick test_work_advances_clock;
        Alcotest.test_case "div by zero" `Quick test_div_by_zero_is_zero;
        Alcotest.test_case "assert traps" `Quick test_assert_traps;
        Alcotest.test_case "lock hand-off" `Quick test_lock_handoff_fifo;
        Alcotest.test_case "tracer" `Quick test_tracer;
        Alcotest.test_case "image pc roundtrip" `Quick test_image_pc_roundtrip;
        Alcotest.test_case "lock array overflow" `Quick test_lock_array_overflow;
        Alcotest.test_case "16 nested locks" `Quick test_deep_nesting_within_capacity;
        Alcotest.test_case "spawn arity" `Quick test_spawn_arity;
        Alcotest.test_case "atlas spawn footprint" `Quick
          test_atlas_spawn_footprint;
        Alcotest.test_case "transient address bounds" `Quick
          test_transient_bounds;
        QCheck_alcotest.to_alcotest prop_straight_line_matches_int64;
        Alcotest.test_case "step allocates nothing" `Quick
          test_step_allocates_nothing;
        QCheck_alcotest.to_alcotest prop_run_queue_matches_scan;
        Alcotest.test_case "olist hook path allocation" `Quick
          test_olist_allocation_bound;
        Alcotest.test_case "crash image restored = crash" `Quick
          test_crash_image_is_crash;
      ] );
  ]
