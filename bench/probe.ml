(* Hot-path budget probe: minor words and wall time per instruction for
   trace generation, each analyzer sink and each machine model, separately
   and fanned out.  Every row after [generation_only] includes the
   generator's own cost; subtract that row for the sink alone.
   Quick to run and deliberately simple — use it to spot an analyzer or
   machine model that starts allocating per instruction before the
   bechamel numbers drift.  See DESIGN.md §8 for the allocation
   discipline it guards. *)
module W = Mica_workloads
module G = Mica_trace.Generator
module A = Mica_analysis
module U = Mica_uarch

let icount = 100_000

let measure name f =
  (* warm up *)
  f ();
  let before = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let reps = 5 in
  for _ = 1 to reps do
    f ()
  done;
  let t1 = Unix.gettimeofday () in
  let after = Gc.minor_words () in
  let n = float_of_int (icount * reps) in
  Printf.printf "%-28s %8.2f words/instr  %8.1f ns/instr\n%!" name
    ((after -. before) /. n)
    ((t1 -. t0) *. 1e9 /. n)

(* Column-reduction probe: the copying [Matrix.column] accessor vs the
   no-copy folds that replaced it in the normalization/PCA hot paths.
   Reported per call over a registry-sized matrix (122 x 47): the
   no-copy path should show ~0 words/call. *)
let probe_column_stats () =
  let module M = Mica_stats.Matrix in
  let module D = Mica_stats.Descriptive in
  let rng = Mica_util.Rng.create ~seed:7L in
  let m =
    Array.init 122 (fun _ -> Array.init 47 (fun _ -> Mica_util.Rng.float rng 100.0))
  in
  let sink = ref 0.0 in
  let all_columns f =
    for j = 0 to 46 do
      sink := !sink +. f j
    done
  in
  let measure_call name f =
    f ();
    let before = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let reps = 2000 in
    for _ = 1 to reps do
      f ()
    done;
    let t1 = Unix.gettimeofday () in
    let after = Gc.minor_words () in
    let n = float_of_int reps in
    Printf.printf "%-28s %8.2f words/call   %8.1f ns/call\n%!" name
      ((after -. before) /. n)
      ((t1 -. t0) *. 1e9 /. n)
  in
  measure_call "column_stats_copying" (fun () ->
      all_columns (fun j ->
          let col = M.column m j in
          D.mean col +. D.stddev col));
  measure_call "column_stats_nocopy" (fun () ->
      all_columns (fun j ->
          let mean, std = M.column_mean_std m j in
          mean +. std));
  ignore (Sys.opaque_identity !sink)

(* Peak analyzer state probe: resident words of the exact extended
   analyzer vs the sketch after traces of growing length.  The exact
   tables (working sets, reuse positions, PPM contexts) grow with the
   trace; the sketch must stay flat at its plan's byte budget. *)
let probe_state_size () =
  let w = W.Registry.find_exn "SPEC2000/swim/ref" in
  let model = w.W.Workload.model in
  let bytes_of v = 8 * Obj.reachable_words (Obj.repr v) in
  List.iter
    (fun icount ->
      let exact = A.Extended.create () in
      let (_ : int) = G.run model ~icount ~sink:(A.Extended.sink exact) in
      let sk = Mica_sketch.Sketch.analyze model ~icount in
      Printf.printf "%-28s %8d KB exact   %6d KB sketch (%d KB resident)\n%!"
        (Printf.sprintf "state_after_%dk_instrs" (icount / 1000))
        (bytes_of exact / 1024) (bytes_of sk / 1024)
        (Mica_sketch.Sketch.state_bytes sk / 1024))
    [ 25_000; 100_000; 400_000 ]

let () =
  let w = W.Registry.find_exn "SPEC2000/bzip2/graphic" in
  let model = w.W.Workload.model in
  let run sink = ignore (G.run model ~icount ~sink : int) in
  measure "generation_only" (fun () ->
      run (Mica_trace.Sink.make ~name:"null" (fun _ -> ())));
  measure "mix" (fun () -> run (A.Mix.sink (A.Mix.create ())));
  measure "ilp" (fun () -> run (A.Ilp.sink (A.Ilp.create ())));
  measure "regtraffic" (fun () -> run (A.Regtraffic.sink (A.Regtraffic.create ())));
  measure "working_set" (fun () -> run (A.Working_set.sink (A.Working_set.create ())));
  measure "strides" (fun () -> run (A.Strides.sink (A.Strides.create ())));
  measure "ppm" (fun () -> run (A.Ppm.sink (A.Ppm.create ())));
  measure "analyzer_fanout" (fun () ->
      let a = A.Analyzer.create () in
      run (A.Analyzer.sink a));
  measure "sketch_fanout" (fun () ->
      let sk = Mica_sketch.Sketch.create () in
      run (Mica_sketch.Sketch.sink sk));
  measure "uarch_inorder" (fun () -> run (U.Inorder.sink (U.Inorder.create ())));
  measure "uarch_ooo" (fun () -> run (U.Ooo.sink (U.Ooo.create ())));
  List.iter
    (fun (cfg : U.Machine.config) ->
      measure ("uarch_machine_" ^ cfg.U.Machine.name) (fun () ->
          run (U.Machine.sink (U.Machine.create cfg))))
    U.Machine.presets;
  probe_column_stats ();
  probe_state_size ()
