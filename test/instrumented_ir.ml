(* Prints one line per supported (scheme, workload) pair: the MD5 of
   the pretty-printed instrumented program, plain and optimized.  The
   dune rule next to this file diffs the output against
   instrumented_ir.expected, so any change to hook placement, region
   plans or optimizer rewrites shows up as a changed digest. *)

open Ido_runtime

let digest p = Digest.to_hex (Digest.string (Format.asprintf "%a" Ido_ir.Ir.pp_program p))

let () =
  List.iter
    (fun scheme ->
      List.iter
        (fun workload ->
          if Ido_check.Engine.supported scheme workload then
            let p = Ido_workloads.Workload.named workload in
            Printf.printf "%s/%s plain %s opt %s\n" (Scheme.name scheme) workload
              (digest (Ido_instrument.Instrument.instrument scheme p))
              (digest (Ido_instrument.Instrument.instrument ~opt:true scheme p)))
        Ido_workloads.Workload.names)
    Scheme.all
