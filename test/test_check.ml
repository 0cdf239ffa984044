(* Tier-1 coverage for the crash-point exploration engine (lib/check).

   Budgets here are deliberately small, and the every-index check of
   restored crash images against from-boot injection boots a machine
   per index, so the suite bounds its total work to keep the tree
   fast.  The exhaustive sweeps live behind bin/ido_check. *)

open Ido_runtime
open Ido_check

let spec ?threads ?ops ?cache_lines ?strict ~scheme ~workload () =
  Engine.defaults ?threads ?ops ?cache_lines ?strict ~scheme ~workload ()

(* Recording the persist-event schedule twice must give the same
   sequence: injection indices are only meaningful if replays observe
   the schedule the recording did. *)
let recording_deterministic () =
  let s = spec ~scheme:Scheme.Ido ~workload:"queue" ~ops:10 () in
  let a = Engine.record s in
  let b = Engine.record s in
  Alcotest.(check int) "same length" (Array.length a) (Array.length b);
  Array.iteri
    (fun i e ->
      Alcotest.(check string)
        (Printf.sprintf "event %d" i)
        (Ido_obs.Obs.describe e) (Ido_obs.Obs.describe b.(i)))
    a

(* The recorded schedule is collected in a growable array and copied
   out once: what survives to the major heap is the events themselves
   (about 2 words each on atlas/olist's 88,812), where a reversed list
   and its reversal promoted more than 5.  Counted with a minor
   collection before each reading, so the minor heap's contents at the
   start do not count. *)
let record_promotion_bound () =
  if Sys.backend_type = Sys.Native then begin
    let s = Engine.defaults ~scheme:Scheme.Atlas ~workload:"olist" () in
    let promoted () =
      Gc.minor ();
      let _, promoted, _ = Gc.counters () in
      promoted
    in
    let before = promoted () in
    let events = Engine.record s in
    let words = promoted () -. before in
    Alcotest.(check int) "events" 88_812 (Array.length events);
    let per_event = words /. float_of_int (Array.length events) in
    Alcotest.(check bool)
      (Printf.sprintf "%.2f words promoted per event (bound 4)" per_event)
      true (per_event <= 4.)
  end

(* A crash at every sampled point of an instrumented scheme must
   recover to a state the Atomic oracle accepts. *)
let clean_exploration scheme workload () =
  let s = spec ~scheme ~workload ~ops:12 () in
  let r = Engine.explore s ~budget:25 in
  (match r.Engine.counterexample with
  | None -> ()
  | Some inj ->
      Alcotest.failf "unexpected violation at index %d: %s" inj.Engine.index
        (match inj.Engine.verdict with Error m -> m | Ok () -> "ok"));
  Alcotest.(check int) "no violations" 0 (List.length r.Engine.violations);
  Alcotest.(check bool) "tested something" true (r.Engine.tested > 0)

(* Origin has no failure-atomicity mechanism: with a small cache the
   eviction stream leaks partial updates, and the strict oracle must
   catch one, shrink it, and hand back an index that replays. *)
let origin_counterexample () =
  let s =
    spec ~scheme:Scheme.Origin ~workload:"stack" ~ops:25 ~cache_lines:4
      ~strict:true ()
  in
  let r = Engine.explore s ~budget:60 in
  match r.Engine.counterexample with
  | None -> Alcotest.fail "origin/stack survived the strict oracle"
  | Some inj -> (
      (match inj.Engine.verdict with
      | Ok () -> Alcotest.fail "counterexample carries an Ok verdict"
      | Error _ -> ());
      (* The shrunk index must replay to a violation on a fresh run. *)
      let again = Engine.inject s inj.Engine.index in
      match again.Engine.verdict with
      | Error _ -> ()
      | Ok () ->
          Alcotest.failf "index %d did not replay to a violation"
            inj.Engine.index)

(* Under the Prefix oracle Origin's crash states are merely required to
   be memory-safe; the same configuration must then pass. *)
let origin_prefix_clean () =
  let s = spec ~scheme:Scheme.Origin ~workload:"stack" ~ops:25 ~cache_lines:8 () in
  let r = Engine.explore s ~budget:40 in
  Alcotest.(check int) "prefix oracle accepts origin" 0
    (List.length r.Engine.violations)

(* Cross-scheme differential check: instrumentation must not change
   what the program computes.  With one thread the schedule is fixed,
   so every scheme's crash-free final state must digest identically.
   (Mnemosyne's abort backoff consumes thread randomness only under
   contention, so single-threaded runs stay comparable.) *)
let differential workload () =
  let digest scheme =
    (Engine.run_traced (spec ~scheme ~workload ~threads:1 ~ops:15 ()))
      .Engine.t_digest
  in
  let reference = digest Scheme.Origin in
  List.iter
    (fun scheme ->
      if Engine.supported scheme workload then
        Alcotest.(check string)
          (Printf.sprintf "%s matches origin on %s" (Scheme.name scheme)
             workload)
          reference (digest scheme))
    Scheme.all

let differential_cases =
  List.map
    (fun w ->
      Alcotest.test_case (Printf.sprintf "all schemes agree on %s" w) `Quick
        (differential w))
    [ "stack"; "queue"; "olist"; "hmap"; "kvcache50"; "objstore"; "mlog" ]

(* Restoring a crash image taken during one forward run, then
   recovering, must be the same crash as re-running from boot and
   crashing the live machine: the same verdict and event, oracle
   digest, recovery statistics and post-recovery clock at every crash
   index.  Small caches force evictions (the eviction generator is
   part of the image) and strict Origin fails, so violating indices are
   compared too.  Each case runs every scheme on one workload (NVML on
   [objstore], the only one it supports) with 2 threads x 6 ops; one
   case is a few thousand from-boot runs.  The cases are fixed: every
   workload once, the cache size cycling through 2, 4 and 4096 lines
   and Origin's oracle alternating between strict and prefix. *)
let restore_cases =
  List.mapi
    (fun i workload ->
      (workload, i, [| 2; 4; 4096 |].(i mod 3), i mod 2 = 0))
    [ "stack"; "queue"; "olist"; "hmap"; "mlog" ]

let restore_is_inject (workload, seed, cache_lines, strict) () =
  List.iter
    (fun scheme ->
      let workload = if scheme = Scheme.Nvml then "objstore" else workload in
      (* Each objstore setup prefills 1000 objects (~7 ms); the
         from-boot side sets up once and restores its boot image after
         that, and NVML runs fewer ops to keep its injections few. *)
      let threads, ops = if workload = "objstore" then (1, 2) else (2, 6) in
      let s =
        Engine.defaults ~threads ~ops ~cache_lines ~strict ~seed ~scheme
          ~workload ()
      in
      let total = Array.length (Engine.record s) in
      let indices = Array.init (total + 1) Fun.id in
      Array.iter2
        (fun (r : Engine.outcome) (b : Engine.outcome) ->
          let check what same =
            if not same then
              Alcotest.failf "%s/%s index %d: %s differs" (Scheme.name scheme)
                workload b.Engine.o_injection.Engine.index what
          in
          check "injection" (r.Engine.o_injection = b.Engine.o_injection);
          check "digest" (r.Engine.o_digest = b.Engine.o_digest);
          check "recovery stats" (r.Engine.o_stats = b.Engine.o_stats);
          check "clock" (r.Engine.o_clock = b.Engine.o_clock))
        (Engine.restored_outcomes s indices)
        (Engine.inject_outcomes s indices))
    Scheme.all

let restore_tests =
  List.map
    (fun ((workload, seed, cache_lines, strict) as case) ->
      Alcotest.test_case
        (Printf.sprintf "%s seed %d, %d lines%s: restored = from-boot" workload
           seed cache_lines
           (if strict then ", strict" else ""))
        `Quick (restore_is_inject case))
    restore_cases

(* A machine restored from its boot image runs exactly as the machine
   it was imaged from: the same event stream, durable image, pmem
   counters, clock and operation count, and the same observations, on
   the imaged machine after its own run (twice in a row, and after a
   crash), and on a new machine that never ran [init].  Every scheme ×
   every workload it supports, plus per scheme a random genome and a
   program whose workers observe a DRAM word [init] wrote (DRAM is
   volatile state a crash image would drop), with the cache size
   cycling through 2, 4 and 4096 lines. *)
let dram_program =
  let open Ido_ir in
  let b, _ = Builder.create ~name:"init" ~nparams:0 in
  Builder.store b Ir.Transient (Ir.Imm 0L) 300 (Ir.Imm 42L);
  Builder.ret b None;
  let init = Builder.finish b in
  let b, _ = Builder.create ~name:"worker" ~nparams:1 in
  let v = Builder.load b Ir.Transient (Ir.Imm 0L) 300 in
  Ido_workloads.Wcommon.observe b (Ir.Reg v);
  Builder.ret b None;
  { Ir.funcs = [ ("init", init); ("worker", Builder.finish b) ] }

let boot_cases =
  let genome =
    match
      Ido_fuzz.Input.base_of_string "random:s(S9.46;L4)|l1(A3)|l1(M;S3.40)"
    with
    | Some base -> base
    | None -> Alcotest.fail "genome does not parse"
  in
  let custom ~scheme ~seed ~cache_lines program =
    {
      Engine.c_program = program;
      c_scheme = scheme;
      c_seed = seed;
      c_cache_lines = cache_lines;
      c_threads = 1;
      c_worker_arg = 0L;
      c_opt = false;
      c_validate = (fun _ -> Ok ());
    }
  in
  List.concat_map
    (fun scheme ->
      List.filter_map
        (fun w ->
          if Engine.supported scheme w then Some (scheme, `Workload w)
          else None)
        Ido_workloads.Workload.names
      @ [ (scheme, `Genome); (scheme, `Dram) ])
    Scheme.all
  |> List.mapi (fun seed (scheme, base) ->
         let cache_lines = [| 2; 4; 4096 |].(seed mod 3) in
         match base with
         | `Workload workload ->
             let threads = if workload = "objstore" then 1 else 2 in
             let s =
               Engine.defaults ~threads ~ops:8 ~cache_lines ~seed ~scheme
                 ~workload ()
             in
             (Engine.custom_of_spec s, Some workload)
         | `Genome ->
             ( custom ~scheme ~seed ~cache_lines
                 (Ido_fuzz.Input.source_program
                    (Ido_fuzz.Input.make ~scheme genome)),
               None )
         | `Dram -> (custom ~scheme ~seed ~cache_lines dram_program, None))

let boot_image_is_fresh_boot () =
  let module Vm = Ido_vm.Vm in
  List.iter
    (fun ((c : Engine.custom), workload) ->
      let label =
        Printf.sprintf "%s/%s seed %d, %d lines"
          (Scheme.name c.Engine.c_scheme)
          (Option.value workload ~default:"custom")
          c.Engine.c_seed c.Engine.c_cache_lines
      in
      let config =
        { (Vm.config c.Engine.c_scheme) with
          Vm.seed = c.Engine.c_seed;
          cache_lines = c.Engine.c_cache_lines;
          pmem_words = 1 lsl 20 }
      in
      let create () = Vm.create config c.Engine.c_program in
      (* The worker phase of a set-up machine, and what it leaves. *)
      let run m =
        let threads =
          List.init c.Engine.c_threads (fun _ ->
              Vm.spawn m ~fname:"worker" ~args:[ c.Engine.c_worker_arg ])
        in
        let obs = Ido_obs.Obs.create () in
        Vm.set_obs m (Some obs);
        (match Vm.run m with
        | `Idle -> ()
        | _ -> Alcotest.fail (label ^ ": worker phase did not finish"));
        Vm.set_obs m None;
        Vm.flush_all m;
        let pm = Vm.pmem m in
        let root = Engine.probe_root m in
        let digest =
          match workload with
          | Some workload ->
              Ido_workloads.Oracle.digest ~workload ~root
                {
                  Ido_workloads.Oracle.load = Ido_nvm.Pmem.load pm;
                  size = Ido_nvm.Pmem.size pm;
                }
          | None ->
              Digest.to_hex
                (Digest.string
                   (Marshal.to_string
                      (Engine.heap_words m ~base:(Int64.to_int root)
                         ~len:Ido_fuzz.Input.cells)
                      []))
        in
        let k = Ido_nvm.Pmem.counters pm in
        ( Ido_obs.Obs.events obs,
          digest,
          { k with Ido_nvm.Pmem.loads = k.Ido_nvm.Pmem.loads },
          Vm.clock m,
          Vm.total_ops m,
          List.map Vm.observations threads )
      in
      let fresh =
        let m = create () in
        Vm.run_init m;
        run m
      in
      let check what m =
        if run m <> fresh then Alcotest.failf "%s: %s differs" label what
      in
      let m = create () in
      Vm.run_init m;
      let image = Vm.boot_image m in
      check "the imaged machine's own run" m;
      Vm.restore_boot m image;
      check "a restore after a run" m;
      ignore (Vm.spawn m ~fname:"worker" ~args:[ c.Engine.c_worker_arg ]);
      ignore (Vm.run ~max_steps:40 m);
      Vm.crash m;
      Vm.restore_boot m image;
      Vm.restore_boot m image;
      check "two restores in a row after a crash" m;
      let m' = create () in
      Vm.restore_boot m' image;
      check "a restore into a new machine" m')
    boot_cases

let suites =
  [
    ( "check.engine",
      [
        Alcotest.test_case "recorded schedule is deterministic" `Quick
          recording_deterministic;
        Alcotest.test_case "ido/queue crash matrix is clean" `Quick
          (clean_exploration Scheme.Ido "queue");
        Alcotest.test_case "atlas/stack crash matrix is clean" `Quick
          (clean_exploration Scheme.Atlas "stack");
        Alcotest.test_case "justdo/stack crash matrix is clean" `Quick
          (clean_exploration Scheme.Justdo "stack");
        Alcotest.test_case "mnemosyne/mlog crash matrix is clean" `Quick
          (clean_exploration Scheme.Mnemosyne "mlog");
        Alcotest.test_case "origin/stack fails strict oracle, shrinks, replays"
          `Quick origin_counterexample;
        Alcotest.test_case "origin/stack passes prefix oracle" `Quick
          origin_prefix_clean;
        Alcotest.test_case "record promotion" `Quick record_promotion_bound;
      ] );
    ("check.differential", differential_cases);
    ("check.crash_image", restore_tests);
    ( "check.boot_image",
      [
        Alcotest.test_case "boot image = fresh boot, every scheme and workload"
          `Quick boot_image_is_fresh_boot;
      ] );
  ]
