module A = Mica_analysis
module Opcode = Mica_isa.Opcode
module Instr = Mica_isa.Instr

let feq = Tutil.feq

(* ---------------- instruction mix ---------------- *)

let test_mix_exact () =
  let t = A.Mix.create () in
  Tutil.run_sink (A.Mix.sink t)
    [
      Tutil.load ~dst:1 ~addr:0x10 ();
      Tutil.store ~addr:0x20 ();
      Tutil.branch ~taken:true ();
      Tutil.alu ();
      Instr.make ~pc:0 ~op:Opcode.Int_mul ~dst:2 ();
      Tutil.fp ();
      Instr.make ~pc:0 ~op:Opcode.Call ~taken:true ~target:4 ();
      Tutil.alu ();
    ];
  let r = A.Mix.result t in
  Alcotest.(check int) "total" 8 r.A.Mix.total;
  Alcotest.check feq "loads" 0.125 r.A.Mix.frac_load;
  Alcotest.check feq "stores" 0.125 r.A.Mix.frac_store;
  Alcotest.check feq "controls (branch+call)" 0.25 r.A.Mix.frac_control;
  Alcotest.check feq "arith" 0.25 r.A.Mix.frac_arith;
  Alcotest.check feq "imul" 0.125 r.A.Mix.frac_int_mul;
  Alcotest.check feq "fp" 0.125 r.A.Mix.frac_fp;
  Alcotest.(check int) "vector length" 6 (Array.length (A.Mix.to_vector r))

let test_mix_empty () =
  let r = A.Mix.result (A.Mix.create ()) in
  Alcotest.check feq "no instructions, no fractions" 0.0 r.A.Mix.frac_load

(* ---------------- ILP ---------------- *)

let test_ilp_serial_chain () =
  (* every instruction depends on the previous one: IPC must be ~1 *)
  let t = A.Ilp.create ~windows:[| 32 |] () in
  let sink = A.Ilp.sink t in
  for i = 0 to 999 do
    Tutil.push_one sink (Tutil.alu ~pc:(4 * i) ~src1:1 ~dst:1 ())
  done;
  let ipc = (A.Ilp.ipc t).(0) in
  Alcotest.(check bool) "serial IPC near 1" true (ipc > 0.95 && ipc < 1.05)

let test_ilp_independent_window_limited () =
  (* fully independent instructions: each window slot is reusable after one
     cycle, so IPC equals the window size *)
  let t = A.Ilp.create ~windows:[| 4; 16 |] () in
  let sink = A.Ilp.sink t in
  for i = 0 to 9_999 do
    Tutil.push_one sink (Tutil.alu ~pc:(4 * i) ())
  done;
  let ipc = A.Ilp.ipc t in
  Alcotest.(check bool) "window 4 -> IPC ~4" true (abs_float (ipc.(0) -. 4.0) < 0.1);
  Alcotest.(check bool) "window 16 -> IPC ~16" true (abs_float (ipc.(1) -. 16.0) < 0.5)

let test_ilp_windows_monotonic () =
  (* on a real-ish trace, a bigger window can never hurt *)
  let t = A.Ilp.create () in
  let p = Tutil.tiny_program "ilp-mono" in
  let (_ : int) = Mica_trace.Generator.run p ~icount:20_000 ~sink:(A.Ilp.sink t) in
  let ipc = A.Ilp.ipc t in
  for i = 0 to Array.length ipc - 2 do
    if ipc.(i) > ipc.(i + 1) +. 1e-9 then Alcotest.fail "IPC decreased with window size"
  done

let test_ilp_zero_register_no_dependency () =
  (* reads of r31 must not serialize *)
  let t = A.Ilp.create ~windows:[| 8 |] () in
  let sink = A.Ilp.sink t in
  for i = 0 to 999 do
    Tutil.push_one sink
      (Tutil.alu ~pc:(4 * i) ~src1:Mica_isa.Reg.zero ~dst:Mica_isa.Reg.zero ())
  done;
  let ipc = (A.Ilp.ipc t).(0) in
  Alcotest.(check bool) "r31 chain is parallel" true (ipc > 7.0)

(* ---------------- register traffic ---------------- *)

let test_regtraffic_operands () =
  let t = A.Regtraffic.create () in
  Tutil.run_sink (A.Regtraffic.sink t)
    [ Tutil.alu ~src1:1 ~src2:2 ~dst:3 (); Tutil.alu ~src1:3 ~dst:4 (); Tutil.alu ~dst:5 () ];
  let r = A.Regtraffic.result t in
  Alcotest.check feq "avg operands" 1.0 r.A.Regtraffic.avg_input_operands

let test_regtraffic_degree_of_use () =
  let t = A.Regtraffic.create () in
  Tutil.run_sink (A.Regtraffic.sink t)
    [
      Tutil.alu ~dst:1 ();  (* instance A of r1 *)
      Tutil.alu ~src1:1 ~dst:2 ();  (* use A (1) *)
      Tutil.alu ~src1:1 ~src2:1 ~dst:1 ();  (* uses A twice, then new instance B *)
      Tutil.alu ~src1:1 ~dst:3 ();  (* use B (1) *)
    ];
  let r = A.Regtraffic.result t in
  (* instances at flush: A used 3x, B used 1x, r2 used 0x, r3 used 0x *)
  Alcotest.check feq "degree of use" 1.0 r.A.Regtraffic.avg_degree_of_use

let test_regtraffic_dependency_distance () =
  let t = A.Regtraffic.create () in
  Tutil.run_sink (A.Regtraffic.sink t)
    [
      Tutil.alu ~dst:1 ();
      Tutil.alu ~src1:1 ~dst:2 ();  (* distance 1 *)
      Tutil.alu ();
      Tutil.alu ~src1:2 ~dst:3 ();  (* distance 2 *)
      Tutil.alu ~src1:1 ();  (* distance 4 *)
    ];
  let r = A.Regtraffic.result t in
  let cdf = r.A.Regtraffic.dep_cdf in
  Alcotest.check feq "P(=1)" (1.0 /. 3.0) cdf.(0);
  Alcotest.check feq "P(<=2)" (2.0 /. 3.0) cdf.(1);
  Alcotest.check feq "P(<=4)" 1.0 cdf.(2);
  Alcotest.check feq "P(<=64)" 1.0 cdf.(6)

let test_regtraffic_zero_reg_excluded () =
  let t = A.Regtraffic.create () in
  Tutil.run_sink (A.Regtraffic.sink t)
    [ Tutil.alu ~dst:Mica_isa.Reg.zero (); Tutil.alu ~src1:Mica_isa.Reg.zero () ];
  let r = A.Regtraffic.result t in
  (* the r31 read counts as an operand but creates no dependency *)
  Alcotest.check feq "operand counted" 0.5 r.A.Regtraffic.avg_input_operands;
  Alcotest.check feq "no dependency recorded" 0.0 r.A.Regtraffic.dep_cdf.(6);
  Alcotest.check feq "no instance recorded" 0.0 r.A.Regtraffic.avg_degree_of_use

let test_regtraffic_vector_shape () =
  let t = A.Regtraffic.create () in
  Tutil.run_sink (A.Regtraffic.sink t) [ Tutil.alu ~dst:1 () ];
  Alcotest.(check int) "9 values" 9
    (Array.length (A.Regtraffic.to_vector (A.Regtraffic.result t)))

(* ---------------- working set ---------------- *)

let test_working_set_counts () =
  let t = A.Working_set.create () in
  Tutil.run_sink (A.Working_set.sink t)
    [
      Tutil.load ~pc:0x1000 ~dst:1 ~addr:0x8000 ();
      Tutil.load ~pc:0x1004 ~dst:1 ~addr:0x8010 ();  (* same 32B block *)
      Tutil.load ~pc:0x1008 ~dst:1 ~addr:0x8020 ();  (* next block, same page *)
      Tutil.store ~pc:0x2000 ~addr:0x10000 ();  (* new block, new page *)
      Tutil.alu ~pc:0x2004 ();
    ];
  let r = A.Working_set.result t in
  Alcotest.(check int) "data blocks" 3 r.A.Working_set.data_blocks;
  Alcotest.(check int) "data pages" 2 r.A.Working_set.data_pages;
  (* pcs 0x1000-0x1008 share a block; 0x2000/0x2004 share another *)
  Alcotest.(check int) "instr blocks" 2 r.A.Working_set.instr_blocks;
  Alcotest.(check int) "instr pages" 2 r.A.Working_set.instr_pages

let test_working_set_idempotent_touch () =
  let t = A.Working_set.create () in
  let i = Tutil.load ~pc:0x1000 ~dst:1 ~addr:0x8000 () in
  Tutil.run_sink (A.Working_set.sink t) [ i; i; i ];
  let r = A.Working_set.result t in
  Alcotest.(check int) "one block" 1 r.A.Working_set.data_blocks

(* ---------------- strides ---------------- *)

let test_strides_local_vs_global () =
  let t = A.Strides.create () in
  Tutil.run_sink (A.Strides.sink t)
    [
      Tutil.load ~pc:0x100 ~dst:1 ~addr:1000 ();
      Tutil.load ~pc:0x200 ~dst:1 ~addr:5000 ();  (* global stride 4000 *)
      Tutil.load ~pc:0x100 ~dst:1 ~addr:1008 ();  (* local stride 8, global 3992 *)
      Tutil.load ~pc:0x200 ~dst:1 ~addr:5000 ();  (* local stride 0, global 3992 *)
    ];
  let r = A.Strides.result t in
  (* local: strides 8 and 0 -> P(=0)=0.5, P(<=8)=1.0 *)
  Alcotest.check feq "local P(=0)" 0.5 r.A.Strides.local_load.(0);
  Alcotest.check feq "local P(<=8)" 1.0 r.A.Strides.local_load.(1);
  (* global: 4000, 3992, 3992 -> all in (512, 4096] *)
  Alcotest.check feq "global P(<=512)" 0.0 r.A.Strides.global_load.(3);
  Alcotest.check feq "global P(<=4096)" 1.0 r.A.Strides.global_load.(4)

let test_strides_stores_separate () =
  let t = A.Strides.create () in
  Tutil.run_sink (A.Strides.sink t)
    [
      Tutil.load ~pc:0x100 ~dst:1 ~addr:1000 ();
      Tutil.store ~pc:0x300 ~addr:9000 ();
      Tutil.load ~pc:0x104 ~dst:1 ~addr:1004 ();  (* global load stride 4, not 8000 *)
      Tutil.store ~pc:0x300 ~addr:9064 ();  (* store strides: local 64, global 64 *)
    ];
  let r = A.Strides.result t in
  Alcotest.check feq "load stream unaffected by stores" 1.0 r.A.Strides.global_load.(1);
  Alcotest.check feq "store local P(<=64)" 1.0 r.A.Strides.local_store.(2);
  Alcotest.check feq "store local P(<=8)" 0.0 r.A.Strides.local_store.(1)

let test_strides_negative_abs () =
  let t = A.Strides.create () in
  Tutil.run_sink (A.Strides.sink t)
    [ Tutil.load ~pc:0x100 ~dst:1 ~addr:1000 (); Tutil.load ~pc:0x100 ~dst:1 ~addr:992 () ];
  let r = A.Strides.result t in
  (* stride -8: absolute value used *)
  Alcotest.check feq "negative stride bucketed by |.|" 1.0 r.A.Strides.local_load.(1)

let test_strides_vector_shape () =
  let t = A.Strides.create () in
  Alcotest.(check int) "20 values" 20 (Array.length (A.Strides.to_vector (A.Strides.result t)))

(* ---------------- PPM ---------------- *)

let always_taken_branch pc = Tutil.branch ~pc ~taken:true ()

let test_ppm_always_taken () =
  let t = A.Ppm.create () in
  let sink = A.Ppm.sink t in
  for _ = 1 to 500 do
    Tutil.push_one sink (always_taken_branch 0x100)
  done;
  List.iter
    (fun v ->
      let miss = A.Ppm.miss_rate t v in
      if miss > 0.02 then
        Alcotest.failf "%s misses %.3f on constant branch" (A.Ppm.variant_name v) miss)
    A.Ppm.all_variants

let test_ppm_alternating () =
  (* T N T N ... is learnable from one bit of history *)
  let t = A.Ppm.create ~order:4 () in
  let sink = A.Ppm.sink t in
  for i = 1 to 1_000 do
    Tutil.push_one sink (Tutil.branch ~pc:0x100 ~taken:(i mod 2 = 0) ())
  done;
  List.iter
    (fun v ->
      let miss = A.Ppm.miss_rate t v in
      if miss > 0.05 then
        Alcotest.failf "%s misses %.3f on alternating branch" (A.Ppm.variant_name v) miss)
    A.Ppm.all_variants

let test_ppm_global_correlation () =
  (* Branch B's outcome equals branch A's last outcome: global-history
     predictors learn it; purely local ones cannot beat 50% by much. *)
  let t = A.Ppm.create ~order:8 () in
  let sink = A.Ppm.sink t in
  let rng = Mica_util.Rng.create ~seed:99L in
  (* count only branch B's behaviour by tracking misses before/after *)
  for _ = 1 to 4_000 do
    let a = Mica_util.Rng.bool rng in
    Tutil.push_one sink (Tutil.branch ~pc:0x100 ~taken:a ());
    Tutil.push_one sink (Tutil.branch ~pc:0x200 ~taken:a ())
  done;
  let gag = A.Ppm.miss_rate t A.Ppm.GAg and pag = A.Ppm.miss_rate t A.Ppm.PAg in
  (* GAg predicts B perfectly (and A randomly): overall ~25%.  PAg sees
     only local history for both: ~50%. *)
  Alcotest.(check bool) "global history exploits correlation" true (gag < pag -. 0.1)

let test_ppm_per_address_tables () =
  (* Two branches with opposite constant outcomes: shared-table variants
     with short history confuse them unless pc is part of the context. *)
  let t = A.Ppm.create ~order:0 () in
  let sink = A.Ppm.sink t in
  for _ = 1 to 1_000 do
    Tutil.push_one sink (Tutil.branch ~pc:0x100 ~taken:true ());
    Tutil.push_one sink (Tutil.branch ~pc:0x200 ~taken:false ())
  done;
  let shared = A.Ppm.miss_rate t A.Ppm.GAg in
  let per_addr = A.Ppm.miss_rate t A.Ppm.GAs in
  Alcotest.(check bool) "per-address separates opposite branches" true
    (per_addr < 0.05 && shared > 0.4)

let test_ppm_only_conditional_branches () =
  let t = A.Ppm.create () in
  Tutil.run_sink (A.Ppm.sink t)
    [ Tutil.alu (); Instr.make ~pc:0 ~op:Opcode.Jump ~taken:true ~target:8 () ];
  Alcotest.(check int) "no conditional branches seen" 0 (A.Ppm.branches t)

let test_ppm_variant_restriction () =
  let t = A.Ppm.create ~variants:[ A.Ppm.GAg ] () in
  Tutil.run_sink (A.Ppm.sink t) [ Tutil.branch ~taken:true () ];
  Alcotest.(check int) "restricted vector" 1 (Array.length (A.Ppm.to_vector t))

(* ---------------- differentials against the reference oracles ---------------- *)

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

(* [branches] conditional branches over [npcs] distinct pcs, each pc with
   its own random taken bias, in random order.  Past three pcs the
   per-address predictors' context-block array grows at least twice. *)
let random_branches ~seed ~npcs ~branches =
  let rng = Mica_util.Rng.create ~seed:(Int64.of_int seed) in
  let pcs = Array.init npcs (fun i -> 0x1000 + (i * 256) + (4 * Mica_util.Rng.int rng 64)) in
  let bias = Array.init npcs (fun _ -> Mica_util.Rng.float rng 1.0) in
  List.init branches (fun _ ->
      let j = Mica_util.Rng.int rng npcs in
      Tutil.branch ~pc:pcs.(j) ~taken:(Mica_util.Rng.bernoulli rng ~p:bias.(j)) ())

(* The dense context blocks must reproduce the oracle's structurally
   keyed tables exactly: same misses, so bit-identical miss rates. *)
let prop_ppm_matches_reference order =
  Tutil.qcheck_case ~count:2
    (Printf.sprintf "ppm order %d = reference, bit for bit" order)
    QCheck2.Gen.(pair (int_range 1 40) int)
    (fun (npcs, seed) ->
      let instrs = random_branches ~seed ~npcs ~branches:20_000 in
      let t = A.Ppm.create ~order () in
      Tutil.run_sink (A.Ppm.sink t) instrs;
      bits_equal (A.Ppm.to_vector t) (Mica_verify.Reference.ppm ~order instrs))

(* Random register traffic over a few registers (r31 and "none"
   included), so dependences are dense and windows fill and wrap. *)
let random_dataflow ~seed ~n =
  let rng = Mica_util.Rng.create ~seed:(Int64.of_int seed) in
  let reg () = if Mica_util.Rng.int rng 8 = 0 then Mica_isa.Reg.none else Mica_util.Rng.int_in rng 28 31 in
  List.init n (fun _ ->
      if Mica_util.Rng.bool rng then Tutil.alu ~src1:(reg ()) ~src2:(reg ()) ~dst:(reg ()) ()
      else Tutil.load ~src1:(reg ()) ~dst:(reg ()) ~addr:0x8000 ())

(* Non-power-of-two windows cover the ring's wrap at every size. *)
let prop_ilp_matches_reference =
  Tutil.qcheck_case ~count:20 "ilp = reference on odd windows, bit for bit"
    QCheck2.Gen.(triple (int_range 1 1500) (int_range 2 200) int)
    (fun (n, window, seed) ->
      let windows = [| 1; 3; 100; window |] in
      let instrs = random_dataflow ~seed ~n in
      let t = A.Ilp.create ~windows () in
      Tutil.run_sink ~capacity:97 (A.Ilp.sink t) instrs;
      bits_equal (A.Ilp.ipc t) (Mica_verify.Reference.ilp ~windows instrs))

(* ---------------- combined analyzer ---------------- *)

let test_analyzer_vector_shape () =
  let p = Tutil.tiny_program "analyzer-shape" in
  let v = A.Analyzer.analyze p ~icount:5_000 in
  Alcotest.(check int) "47 characteristics" A.Characteristics.count (Array.length v);
  Array.iteri (fun i x -> if Float.is_nan x then Alcotest.failf "characteristic %d is NaN" i) v

let test_analyzer_deterministic () =
  let p = Tutil.tiny_program "analyzer-det" in
  let a = A.Analyzer.analyze p ~icount:5_000 and b = A.Analyzer.analyze p ~icount:5_000 in
  Alcotest.(check bool) "same vector" true (a = b)

let test_analyzer_probabilities_in_range () =
  let p = Tutil.tiny_program "analyzer-range" in
  let v = A.Analyzer.analyze p ~icount:5_000 in
  (* mix fractions, dependency CDF, strides, PPM miss rates are probabilities *)
  let prob_indices =
    List.concat [ List.init 6 Fun.id; List.init 7 (fun i -> 12 + i); List.init 20 (fun i -> 23 + i); List.init 4 (fun i -> 43 + i) ]
  in
  List.iter
    (fun i ->
      if v.(i) < -1e-9 || v.(i) > 1.0 +. 1e-9 then
        Alcotest.failf "characteristic %d = %f out of [0,1]" i v.(i))
    prob_indices

let test_analyzer_cdfs_monotonic () =
  let p = Tutil.tiny_program "analyzer-cdf" in
  let v = A.Analyzer.analyze p ~icount:5_000 in
  let check_monotonic lo hi =
    for i = lo to hi - 1 do
      if v.(i) > v.(i + 1) +. 1e-9 then Alcotest.failf "CDF not monotonic at %d" i
    done
  in
  check_monotonic 12 18;
  (* dependency distances *)
  check_monotonic 23 27;
  (* local load strides *)
  check_monotonic 28 32;
  check_monotonic 33 37;
  check_monotonic 38 42

let test_characteristics_catalogue () =
  Alcotest.(check int) "47 names" 47 (Array.length A.Characteristics.names);
  Alcotest.(check int) "47 short names" 47 (Array.length A.Characteristics.short_names);
  Alcotest.(check int) "47 categories" 47 (Array.length A.Characteristics.categories);
  let uniq = List.sort_uniq compare (Array.to_list A.Characteristics.short_names) in
  Alcotest.(check int) "short names unique" 47 (List.length uniq);
  Alcotest.(check (option int)) "lookup" (Some 0)
    (A.Characteristics.index_of_short_name "pct_load");
  Alcotest.(check (option int)) "missing lookup" None
    (A.Characteristics.index_of_short_name "nope")

let suite =
  ( "analysis",
    [
      Alcotest.test_case "mix exact" `Quick test_mix_exact;
      Alcotest.test_case "mix empty" `Quick test_mix_empty;
      Alcotest.test_case "ilp serial chain" `Quick test_ilp_serial_chain;
      Alcotest.test_case "ilp window limited" `Quick test_ilp_independent_window_limited;
      Alcotest.test_case "ilp windows monotonic" `Quick test_ilp_windows_monotonic;
      Alcotest.test_case "ilp r31 no dependency" `Quick test_ilp_zero_register_no_dependency;
      Alcotest.test_case "regtraffic operands" `Quick test_regtraffic_operands;
      Alcotest.test_case "regtraffic degree of use" `Quick test_regtraffic_degree_of_use;
      Alcotest.test_case "regtraffic dependency distance" `Quick
        test_regtraffic_dependency_distance;
      Alcotest.test_case "regtraffic r31 excluded" `Quick test_regtraffic_zero_reg_excluded;
      Alcotest.test_case "regtraffic vector shape" `Quick test_regtraffic_vector_shape;
      Alcotest.test_case "working set counts" `Quick test_working_set_counts;
      Alcotest.test_case "working set idempotent" `Quick test_working_set_idempotent_touch;
      Alcotest.test_case "strides local vs global" `Quick test_strides_local_vs_global;
      Alcotest.test_case "strides stores separate" `Quick test_strides_stores_separate;
      Alcotest.test_case "strides negative" `Quick test_strides_negative_abs;
      Alcotest.test_case "strides vector shape" `Quick test_strides_vector_shape;
      Alcotest.test_case "ppm always taken" `Quick test_ppm_always_taken;
      Alcotest.test_case "ppm alternating" `Quick test_ppm_alternating;
      Alcotest.test_case "ppm global correlation" `Quick test_ppm_global_correlation;
      Alcotest.test_case "ppm per-address tables" `Quick test_ppm_per_address_tables;
      Alcotest.test_case "ppm conditional only" `Quick test_ppm_only_conditional_branches;
      Alcotest.test_case "ppm variant restriction" `Quick test_ppm_variant_restriction;
      prop_ppm_matches_reference 0;
      prop_ppm_matches_reference 1;
      prop_ppm_matches_reference 4;
      prop_ppm_matches_reference 8;
      prop_ppm_matches_reference 12;
      prop_ilp_matches_reference;
      Alcotest.test_case "analyzer vector shape" `Quick test_analyzer_vector_shape;
      Alcotest.test_case "analyzer deterministic" `Quick test_analyzer_deterministic;
      Alcotest.test_case "analyzer probabilities" `Quick test_analyzer_probabilities_in_range;
      Alcotest.test_case "analyzer CDFs monotonic" `Quick test_analyzer_cdfs_monotonic;
      Alcotest.test_case "characteristics catalogue" `Quick test_characteristics_catalogue;
    ] )
