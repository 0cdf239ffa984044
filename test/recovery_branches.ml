(* Prints every recovery branch's outcome: for each scheme, one small
   run (queue at 2 threads of 3 ops, or the scheme's only workload,
   single-threaded objstore, at 1 thread of 6; 4 cache lines) is
   crashed just before crash-point events 0, 5, ..., 200, and each
   crash image is recovered.  One line per index gives the recovery
   stats, the clock, the MD5 of the Oracle digest of the recovered image
   and the texts of the Recovery_step events; each scheme ends with a
   tally of its recovery steps.  The dune rule next to this file diffs
   the output against recovery_branches.expected, so a change to any
   recovery branch shows up as a diff.  Exits 1 when a branch the
   tallies must show never fires. *)

open Ido_runtime
module Vm = Ido_vm.Vm
module Recover = Ido_vm.Recover
module Workload = Ido_workloads.Workload

let indices = Array.init 41 (fun i -> 5 * i)

(* The run of [scheme]; its workload name and a boot function. *)
let run_of scheme =
  let w =
    Workload.get
      (match (Scheme.props scheme).workloads with Some (w :: _) -> w | _ -> "queue")
  in
  let threads = if w.single_threaded then 1 else 2 in
  let config =
    { (Vm.config scheme) with seed = 42; cache_lines = 4; pmem_words = 1 lsl 20 }
  in
  let create () = Vm.create config (Workload.program w) in
  let boot () =
    let m = create () in
    Vm.run_init m;
    for _ = 1 to threads do
      ignore (Vm.spawn m ~fname:"worker" ~args:[ Int64.of_int (6 / threads) ])
    done;
    m
  in
  (w.name, create, boot)

let digest workload m =
  let pm = Vm.pmem m in
  Digest.to_hex
    (Digest.string
       (Ido_workloads.Oracle.digest ~workload
          ~root:(Ido_region.Region.get_root (Vm.region m) 0)
          { Ido_workloads.Oracle.load = Ido_nvm.Pmem.load pm; size = Ido_nvm.Pmem.size pm }))

(* Recover the crashed [m] under a buffered sink; the writes undone,
   the stats line and the recovery steps' texts. *)
let recover workload m =
  let obs = Ido_obs.Obs.create ~buffer:true () in
  Vm.set_obs m (Some obs);
  let undone, stats =
    match Vm.recover m with
    | st ->
        ( st.Recover.writes_undone,
          Printf.sprintf "resumed=%d scanned=%d undone=%d rolled=%d pages=%d replayed=%d ns=%d"
            st.fases_resumed st.records_scanned st.writes_undone st.fases_rolled_back
            st.pages_restored st.txns_replayed st.simulated_time )
    | exception e -> (0, "raised " ^ Printexc.to_string e)
  in
  Vm.set_obs m None;
  Vm.flush_all m;
  let steps =
    List.filter_map
      (fun (e : Ido_obs.Obs.event) ->
        match e.kind with Ido_obs.Obs.Recovery_step { what; _ } -> Some what | _ -> None)
      (Ido_obs.Obs.events obs)
  in
  (undone, Printf.sprintf "%s clock=%d digest=%s" stats (Vm.clock m) (digest workload m), steps)

(* Each scheme's crash images are taken in one forward run and each is
   recovered, as soon as it is taken, on a second machine. *)
let scheme_lines scheme =
  let name = Scheme.name scheme in
  let workload, create, boot = run_of scheme in
  let target = create () in
  let tally = Hashtbl.create 8 in
  let undid = ref 0 in
  let emit k image =
    Vm.restore_crashed target image;
    let undone, line, steps = recover workload target in
    if undone > 0 then incr undid;
    List.iter
      (fun s ->
        let word = List.hd (String.split_on_char ' ' s) in
        Hashtbl.replace tally word (1 + Option.value ~default:0 (Hashtbl.find_opt tally word)))
      steps;
    Printf.printf "%s/%s %3d %s%s\n" name workload k line
      (String.concat "" (List.map (fun s -> " | " ^ s) steps))
  in
  let m = boot () in
  let next = ref 0 and count = ref 0 in
  Vm.set_event_hook m
    (Some
       (fun _ ->
         if !next < Array.length indices && indices.(!next) = !count then begin
           emit indices.(!next) (Vm.crash_image m);
           incr next
         end;
         incr count));
  (match Vm.run m with `Idle -> () | _ -> failwith "worker phase did not finish");
  Vm.set_event_hook m None;
  let idle = Vm.crash_image m in
  while !next < Array.length indices do
    emit indices.(!next) idle;
    incr next
  done;
  let words = List.sort compare (Hashtbl.fold (fun w n acc -> (w, n) :: acc) tally []) in
  Printf.printf "== %s: %d events%s, writes undone at %d\n" name !count
    (String.concat "" (List.map (fun (w, n) -> Printf.sprintf ", %s %d" w n) words))
    !undid;
  (scheme, (words, !undid))

(* The branches each scheme must run: resumption, an undo that undoes
   writes (Atlas reports a step on every recovery), redo replay, and
   NVThreads' apply and discard. *)
let required =
  Scheme.
    [
      (Ido, "resume");
      (Justdo, "resume");
      (Atlas, "undo");
      (Nvml, "undo");
      (Mnemosyne, "replay");
      (Nvthreads, "apply");
      (Nvthreads, "discard");
    ]

let () =
  let tallies = List.map scheme_lines Scheme.all in
  let ran (s, w) =
    let words, undid = List.assoc s tallies in
    List.mem_assoc w words && (w <> "undo" || undid > 0)
  in
  let missing = List.filter (fun r -> not (ran r)) required in
  List.iter
    (fun (s, w) -> Printf.eprintf "recovery_branches: %s never ran %s\n" (Scheme.name s) w)
    missing;
  if missing <> [] then exit 1
