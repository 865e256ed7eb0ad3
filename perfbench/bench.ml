(* Benchmark driver for the batch workloads and the traced per-layer run.

   The measuring subcommands print one JSON object of raw samples on
   stdout; run.py turns them into the reported metrics.  [golden] prints
   the pinned answers kept in golden/.  Run from the repository root
   (machines/ and results/baseline/ are read relative to it).

     bench.exe characterize --seconds S --work DIR
     bench.exe fleet --seconds S
     bench.exe select --seconds S --seed N
     bench.exe setup (characterize|fleet|select) --work DIR
     bench.exe traced --seed N --work DIR
     bench.exe serve-fixture --dir DIR --icount N
     bench.exe golden (characterize|fleet|select)
     bench.exe model-version *)

module W = Mica_workloads
module Pipeline = Mica_core.Pipeline
module Run_report = Mica_core.Run_report
module Dataset = Mica_core.Dataset
module Space = Mica_core.Space
module Experiments = Mica_core.Experiments
module Fleet = Mica_core.Fleet
module Clustering = Mica_core.Clustering
module Machine = Mica_uarch.Machine
module Machine_desc = Mica_uarch.Machine_desc
module Genetic = Mica_select.Genetic
module Fitness = Mica_select.Fitness
module Ce = Mica_select.Correlation_elimination
module Sink = Mica_trace.Sink
module Generator = Mica_trace.Generator
module A = Mica_analysis
module Json = Mica_obs.Json

external now : unit -> (float[@unboxed]) = "perfbench_now" "perfbench_now_unboxed"
[@@noalloc]

(* ---------------- fixed sizes ---------------- *)

let characterize_icount = 200_000
let fleet_icount = 50_000
let machines_dir = "machines"
let mica_csv = "results/baseline/mica_dataset.csv"
let hpc_csv = "results/baseline/hpc_dataset.csv"
let golden_dir = "perfbench/golden"

(* GA seeds come from a fixed pool whose results are pinned in
   golden/select.txt; the workload seed picks which [ga_runs] of them a run
   uses, so every run is checked against a golden answer. *)
let ga_pool = 64
let ga_runs = 6
let ga_seed k = Int64.add 0x6A5EEDL (Int64.of_int k)
let ga_indices seed = List.init ga_runs (fun i -> ((seed * ga_runs) + i) mod ga_pool)

let ga_config =
  { Genetic.default_config with stall_generations = Genetic.default_config.max_generations }

(* ---------------- helpers ---------------- *)

let num v = Json.Num v
let nums a = Json.List (List.map num a)
let print_json fields = print_endline (Json.to_string (Json.Obj fields))

let bits_hex v = Printf.sprintf "%016Lx" (Int64.bits_of_float v)

(* MD5 over every cell's IEEE bit pattern, row by row with its label. *)
let digest_rows names rows =
  let b = Buffer.create 65536 in
  Array.iteri
    (fun i name ->
      Buffer.add_string b name;
      Array.iter
        (fun v ->
          Buffer.add_char b ',';
          Buffer.add_string b (bits_hex v))
        rows.(i);
      Buffer.add_char b '\n')
    names;
  Digest.to_hex (Digest.string (Buffer.contents b))

let read_golden name =
  let path = Filename.concat golden_dir name in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (if String.trim line = "" then acc else String.trim line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* Peak resident set of this process, in MB (Linux VmHWM). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> nan
      in
      go ())

(* Lower VmHWM to the current resident set (Linux clear_refs "5"). *)
let reset_peak_rss () =
  let oc = open_out "/proc/self/clear_refs" in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc "5")

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Repeat the pass [f] until [seconds] have elapsed (at least once).
   Returns the results and the peak RSS of the first pass: later passes
   inherit the heap earlier ones grew, so only the first is comparable
   across runs that fit different numbers of passes. *)
let repeat_for seconds f =
  reset_peak_rss ();
  let t0 = now () in
  let first = f () in
  let rss = peak_rss_mb () in
  let rec go acc = if now () -. t0 >= seconds then List.rev acc else go (f () :: acc) in
  (go [ first ], rss)

(* Measured passes run on one domain: on a shared 2-vCPU host the second
   vCPU comes and goes, which swings two-domain wall times far more than
   any change under test (see README.md).  Pool efficiency is measured at
   [pool_jobs] in the traced run. *)
let pass_jobs = 1
let pool_jobs = 2

(* ---------------- characterize ---------------- *)

let characterize_config ~dir ~jobs =
  {
    Pipeline.default_config with
    icount = characterize_icount;
    cache_dir = Some dir;
    jobs;
    progress = false;
    run = None;
  }

let dataset_digest (mica : Dataset.t) (hpc : Dataset.t) =
  digest_rows mica.Dataset.names
    (Array.mapi (fun i row -> Array.append row hpc.Dataset.data.(i)) mica.Dataset.data)

(* Set-up: the workload list and a fresh, empty cache directory. *)
let characterize_setup ~work =
  let workloads = W.Registry.all in
  let dir = Filename.concat work "cache" in
  rm_rf dir;
  mkdir_p dir;
  (workloads, dir)

let characterize_pass ~jobs workloads dir =
  let config = characterize_config ~dir ~jobs in
  let (mica, hpc, report), wall = time (fun () -> Pipeline.datasets_report ~config workloads) in
  (mica, hpc, report, wall)

let pool_busy report =
  List.fold_left (fun acc (_, t) -> acc +. t.Run_report.elapsed_s) 0.0 (Run_report.timings report)

(* A measured pass: its wall time, the times of the items it is made of
   (one per workload, or one per GA run), and whether its output check
   passed. *)
type pass = { wall : float; items : float list; ok : bool }

(* Set up, repeat [pass] for [seconds] and print the raw samples. *)
let measure ~seconds ~setup ~pass =
  let r = setup () in
  let passes, rss = repeat_for seconds (fun () -> pass r) in
  print_json
    [
      ("wall_s", nums (List.map (fun p -> p.wall) passes));
      ("item_s", nums (List.concat_map (fun p -> p.items) passes));
      ("ok", Json.List (List.map (fun p -> Json.Bool p.ok) passes));
      ("peak_rss_mb", num rss);
    ]

let cmd_characterize ~seconds ~work =
  let golden = List.hd (read_golden "characterize.txt") in
  measure ~seconds
    ~setup:(fun () -> characterize_setup ~work)
    ~pass:(fun (workloads, dir) ->
      let mica, hpc, report, wall = characterize_pass ~jobs:pass_jobs workloads dir in
      rm_rf dir;
      mkdir_p dir;
      let items = List.map (fun (_, t) -> t.Run_report.elapsed_s) (Run_report.timings report) in
      { wall; items; ok = Run_report.all_ok report && dataset_digest mica hpc = golden })

(* ---------------- fleet ---------------- *)

let fleet_setup () =
  match Machine_desc.load_dir machines_dir with
  | Ok machines -> List.map snd machines
  | Error e -> failwith ("machine descriptions: " ^ e)

let fleet_digest (f : Fleet.t) = digest_rows f.Fleet.workload_ids f.Fleet.matrix

(* One Fleet.characterize call per workload, in registry order, so each
   workload's time is an item; the rows are those of one call over the
   whole registry. *)
let cmd_fleet ~seconds =
  let golden = List.hd (read_golden "fleet.txt") in
  let names = Array.of_list (List.map W.Workload.id W.Registry.all) in
  measure ~seconds ~setup:fleet_setup ~pass:(fun configs ->
      let runs, wall =
        time (fun () ->
            List.map
              (fun w ->
                time (fun () ->
                    Fleet.characterize ~jobs:pass_jobs ~configs ~icount:fleet_icount [ w ]))
              W.Registry.all)
      in
      let rows = Array.of_list (List.map (fun (f, _) -> f.Fleet.matrix.(0)) runs) in
      { wall; items = List.map snd runs; ok = digest_rows names rows = golden })

(* ---------------- select ---------------- *)

(* Set-up: both committed datasets, their spaces and the GA fitness.
   Also returns the time spent building the two spaces. *)
let select_setup () =
  let mica = Dataset.of_csv mica_csv and hpc = Dataset.of_csv hpc_csv in
  let t1 = now () in
  let mica_space = Space.of_dataset mica and hpc_space = Space.of_dataset hpc in
  let t2 = now () in
  let fitness = Fitness.create mica_space.Space.normalized in
  let ctx =
    {
      Experiments.Context.config = Pipeline.default_config;
      workloads =
        List.filter (fun w -> Dataset.row_index mica (W.Workload.id w) <> None) W.Registry.all;
      mica;
      hpc;
      mica_space;
      hpc_space;
      fitness;
      report = Run_report.create [];
    }
  in
  (ctx, t2 -. t1)

let ce_digest steps =
  let b = Buffer.create 4096 in
  List.iter
    (fun (s : Ce.step) ->
      Buffer.add_string b (Printf.sprintf "%d:%s;" s.Ce.removed (bits_hex s.Ce.rho)))
    steps;
  Digest.to_hex (Digest.string (Buffer.contents b))

let fig4_digest entries =
  String.concat ","
    (List.map
       (fun (e : Experiments.roc_entry) -> bits_hex e.Experiments.curve.Mica_stats.Roc.auc)
       entries)
  |> Digest.string |> Digest.to_hex

let fig6_digest (f : Experiments.fig6) =
  let c = f.Experiments.clustering in
  Printf.sprintf "k=%d;%s" c.Clustering.k
    (String.concat "," (Array.to_list (Array.map string_of_int c.Clustering.assignments)))
  |> Digest.string |> Digest.to_hex

(* One golden line per pool seed: index, subset, rho bits, and the
   digests of fig4/fig6 computed from that seed's selection. *)
let ga_line k (r : Genetic.result) ~fig4 ~fig6 =
  Printf.sprintf "%d %s %s %s %s" k
    (String.concat "," (Array.to_list (Array.map string_of_int r.Genetic.selected)))
    (bits_hex r.Genetic.rho) fig4 fig6

type select_pass = {
  ce_s : float;
  ga_s : float;  (** all GA runs together *)
  ga_run_s : float list;  (** each GA run *)
  ga_evals : int;
  ga_words : float;
  roc_s : float;
  cluster_s : float;
  lines : string list;
  ce : string;
}

let select_pass ctx indices =
  let ce, ce_s = time (fun () -> Experiments.run_ce ctx) in
  let runs =
    List.map
      (fun k ->
        let w0 = Gc.minor_words () in
        let r, s = time (fun () -> Experiments.run_ga ~config:ga_config ~seed:(ga_seed k) ctx) in
        (k, r, s, Gc.minor_words () -. w0))
      indices
  in
  let k0, ga0, _, _ = List.hd runs in
  let fig4, roc_s = time (fun () -> Experiments.fig4 ctx ~ga:ga0 ~ce) in
  let fig6, cluster_s =
    time (fun () -> Experiments.fig6 ctx ~selected:ga0.Genetic.selected)
  in
  let f4 = fig4_digest fig4 and f6 = fig6_digest fig6 in
  let lines =
    List.map
      (fun (k, r, _, _) ->
        if k = k0 then ga_line k r ~fig4:f4 ~fig6:f6
        else
          (* Only the first seed's figures are computed in a pass; the
             others are compared on subset and rho alone. *)
          ga_line k r ~fig4:"-" ~fig6:"-")
      runs
  in
  {
    ce_s;
    ga_s = List.fold_left (fun acc (_, _, s, _) -> acc +. s) 0.0 runs;
    ga_run_s = List.map (fun (_, _, s, _) -> s) runs;
    ga_evals = List.fold_left (fun acc (_, r, _, _) -> acc + r.Genetic.evaluations) 0 runs;
    ga_words = List.fold_left (fun acc (_, _, _, w) -> acc +. w) 0.0 runs;
    roc_s;
    cluster_s;
    lines;
    ce = ce_digest ce;
  }

(* A pass line matches its golden line field by field; "-" fields are
   not compared. *)
let line_matches golden line =
  let g = String.split_on_char ' ' golden and l = String.split_on_char ' ' line in
  List.length g = List.length l && List.for_all2 (fun a b -> b = "-" || a = b) g l

let select_ok pass =
  let golden = read_golden "select.txt" in
  let ce_golden = List.hd golden and seeds = Array.of_list (List.tl golden) in
  pass.ce = ce_golden
  && List.for_all
       (fun line ->
         let k = int_of_string (List.hd (String.split_on_char ' ' line)) in
         line_matches seeds.(k) line)
       pass.lines

let cmd_select ~seconds ~seed =
  let indices = ga_indices seed in
  measure ~seconds ~setup:select_setup ~pass:(fun (ctx, _) ->
      let p, wall = time (fun () -> select_pass ctx indices) in
      { wall; items = p.ga_run_s; ok = select_ok p })

(* ---------------- set-up probe ---------------- *)

(* One set-up, timed in this fresh process as a user's run would pay it.
   run.py takes the median over many such processes: repeats inside one
   process agree with each other far more than processes do. *)
let cmd_setup workload ~work =
  let setup () =
    match workload with
    | "characterize" -> ignore (characterize_setup ~work)
    | "fleet" -> ignore (fleet_setup ())
    | "select" -> ignore (select_setup ())
    | other -> failwith ("setup: unknown workload " ^ other)
  in
  let (), s = time setup in
  print_json [ ("setup_s", num s) ]

(* ---------------- traced per-layer run ---------------- *)

(* Per-sink accumulators: wall seconds and minor words spent inside each
   wrapped sink.  The wrapper reads an unboxed clock and the unboxed
   minor-word counter and stores into float arrays, so it allocates
   nothing and the word counts repeat exactly from run to run. *)
type acc = { names : string array; secs : float array; words : float array }

let acc names =
  let n = Array.length names in
  { names; secs = Array.make n 0.0; words = Array.make n 0.0 }

let wrap (a : acc) i (s : Sink.t) =
  let secs = a.secs and words = a.words in
  Sink.make ~name:s.Sink.name (fun chunk ->
      let w0 = Gc.minor_words () in
      let t0 = now () in
      s.Sink.on_chunk chunk;
      let t1 = now () in
      let w1 = Gc.minor_words () in
      secs.(i) <- secs.(i) +. (t1 -. t0);
      words.(i) <- words.(i) +. (w1 -. w0))

(* Pipeline.characterize's composition rebuilt from the public family
   sinks and the two Alpha machine models. *)
type composition = {
  mix : A.Mix.t;
  ilp : A.Ilp.t;
  regtraffic : A.Regtraffic.t;
  working_set : A.Working_set.t;
  strides : A.Strides.t;
  ppm : A.Ppm.t;
  inorder : Mica_uarch.Inorder.t;
  ooo : Mica_uarch.Ooo.t;
}

let layer_names =
  [| "analysis.mix"; "analysis.ilp"; "analysis.regtraffic"; "analysis.working_set";
     "analysis.strides"; "analysis.ppm"; "uarch.inorder"; "uarch.ooo" |]

let composition () =
  {
    mix = A.Mix.create ();
    ilp = A.Ilp.create ();
    regtraffic = A.Regtraffic.create ();
    working_set = A.Working_set.create ();
    strides = A.Strides.create ();
    ppm = A.Ppm.create ~order:Pipeline.default_config.Pipeline.ppm_order ();
    inorder = Mica_uarch.Inorder.create ();
    ooo = Mica_uarch.Ooo.create ();
  }

let composition_sinks c =
  [
    A.Mix.sink c.mix; A.Ilp.sink c.ilp; A.Regtraffic.sink c.regtraffic;
    A.Working_set.sink c.working_set; A.Strides.sink c.strides; A.Ppm.sink c.ppm;
    Mica_uarch.Inorder.sink c.inorder; Mica_uarch.Ooo.sink c.ooo;
  ]

(* The 47 + 7 vector, in Analyzer.vector and Hw_counters order. *)
let composition_vector c =
  let io = Mica_uarch.Inorder.result c.inorder and oo = Mica_uarch.Ooo.result c.ooo in
  Array.concat
    [
      A.Mix.to_vector (A.Mix.result c.mix);
      A.Ilp.ipc c.ilp;
      A.Regtraffic.to_vector (A.Regtraffic.result c.regtraffic);
      A.Working_set.to_vector (A.Working_set.result c.working_set);
      A.Strides.to_vector (A.Strides.result c.strides);
      A.Ppm.to_vector c.ppm;
      [| io.Mica_uarch.Inorder.ipc; io.branch_mispredict_rate; io.l1d_miss_rate;
         io.l1i_miss_rate; io.l2_miss_rate; io.dtlb_miss_rate; oo.Mica_uarch.Ooo.ipc |];
    ]

(* One workload through the composition, wrapped when [acc] is given:
   the generator-call time and minor words, and the 54-wide row. *)
let composition_run ?acc:a (w : W.Workload.t) =
  let c = composition () in
  let sinks = composition_sinks c in
  let sinks = match a with None -> sinks | Some a -> List.mapi (wrap a) sinks in
  let sink = Sink.fanout sinks in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let (_ : int) = Generator.run w.W.Workload.model ~icount:characterize_icount ~sink in
  let t1 = now () in
  let w1 = Gc.minor_words () in
  (t1 -. t0, w1 -. w0, composition_vector c)

let per_instr total instrs = total /. float_of_int instrs

let layer_metrics (a : acc) ~instrs =
  List.concat
    (Array.to_list
       (Array.mapi
          (fun i name ->
            [
              (name ^ "_ns_per_instr", per_instr (a.secs.(i) *. 1e9) instrs, "ns/instr");
              (name ^ "_words_per_instr", per_instr a.words.(i) instrs, "words/instr");
            ])
          a.names))

(* The generator's self time is the traced generator-call time minus the
   sinks' spans, so the two add up to the call time by definition.  What
   can be checked is that the sink spans nest inside their call: the
   remainder is non-negative for every workload, not only in total.
   [calls] holds each workload's call time and its sinks' span sum. *)
let generator_self calls =
  let gen = List.fold_left (fun acc (call, sinks) -> acc +. (call -. sinks)) 0.0 calls in
  (gen, List.for_all (fun (call, sinks) -> sinks <= call) calls)

let span_sum (a : acc) = Array.fold_left ( +. ) 0.0 a.secs

let traced_characterize ~work =
  let workloads = W.Registry.all in
  let n = List.length workloads in
  let instrs = n * characterize_icount in
  let golden = List.hd (read_golden "characterize.txt") in
  let names = Array.of_list (List.map W.Workload.id workloads) in
  (* Untraced pass on [pool_jobs] domains, for pool efficiency. *)
  let dir = Filename.concat work "traced-cache" in
  rm_rf dir;
  mkdir_p dir;
  let mica, hpc, report, wall = characterize_pass ~jobs:pool_jobs workloads dir in
  rm_rf dir;
  let pool_ok = Run_report.all_ok report && dataset_digest mica hpc = golden in
  let pool_efficiency = pool_busy report /. (float_of_int pool_jobs *. wall) in
  (* Each workload runs wrapped and then unwrapped, back to back, so that
     drift in host speed cancels out of trace.overhead_pct. *)
  let a = acc layer_names in
  let runs =
    List.map
      (fun w ->
        let before = span_sum a in
        let wrapped = composition_run ~acc:a w in
        let sinks = span_sum a -. before in
        (wrapped, sinks, composition_run w))
      workloads
  in
  let sum f = List.fold_left (fun total r -> total +. f r) 0.0 runs in
  let run_secs = sum (fun ((t, _, _), _, _) -> t) and run_words = sum (fun ((_, w, _), _, _) -> w) in
  let plain_secs = sum (fun (_, _, (t, _, _)) -> t) in
  let rows = Array.of_list (List.map (fun ((_, _, r), _, _) -> r) runs) in
  let plain_rows = Array.of_list (List.map (fun (_, _, (_, _, r)) -> r) runs) in
  let rows_ok = digest_rows names rows = golden && digest_rows names plain_rows = golden in
  let gen_secs, nested_ok =
    generator_self (List.map (fun ((t, _, _), sinks, _) -> (t, sinks)) runs)
  in
  let gen_words = run_words -. Array.fold_left ( +. ) 0.0 a.words in
  (* Cache write and read of the 122 vectors through the pipeline. *)
  let cache_dir = Filename.concat work "traced-flush" in
  rm_rf cache_dir;
  mkdir_p cache_dir;
  let config = characterize_config ~dir:cache_dir ~jobs:1 in
  let entries =
    Array.to_list
      (Array.mapi
         (fun i id ->
           let r = rows.(i) in
           let m = A.Characteristics.count in
           (id, (Array.sub r 0 m, Array.sub r m Mica_uarch.Hw_counters.count)))
         names)
  in
  let (), write_s = time (fun () -> Pipeline.flush_cache config entries) in
  let warm, read_s = time (fun () -> Pipeline.warm_cache config) in
  rm_rf cache_dir;
  let cache_ok = List.length warm = n in
  let metrics =
    [
      ("trace.gen_ns_per_instr", per_instr (gen_secs *. 1e9) instrs, "ns/instr");
      ("trace.gen_words_per_instr", per_instr gen_words instrs, "words/instr");
    ]
    @ layer_metrics a ~instrs
    @ [
        ("util.pool_efficiency", pool_efficiency, "ratio");
        ("run.cache_write_ms", write_s *. 1000.0, "ms");
        ("run.cache_read_ms", read_s *. 1000.0, "ms");
        ("trace.overhead_pct", (run_secs -. plain_secs) /. plain_secs *. 100.0, "%");
      ]
  in
  (metrics, [ ("characterize.pool", pool_ok); ("characterize.rows", rows_ok);
              ("characterize.nested", nested_ok); ("characterize.cache", cache_ok) ])

let traced_fleet () =
  let configs = fleet_setup () in
  let workloads = W.Registry.all in
  let instrs = List.length workloads * fleet_icount in
  let golden = List.hd (read_golden "fleet.txt") in
  let a =
    acc
      (Array.of_list
         (List.map (fun (c : Machine.config) -> "uarch.machine." ^ c.Machine.name) configs))
  in
  let runs =
    List.map
      (fun (w : W.Workload.t) ->
        let machines = List.map Machine.create configs in
        let sink = Sink.fanout (List.mapi (fun i m -> wrap a i (Machine.sink m)) machines) in
        let before = span_sum a in
        let t0 = now () in
        let (_ : int) = Generator.run w.W.Workload.model ~icount:fleet_icount ~sink in
        let call = now () -. t0 in
        ( (call, span_sum a -. before),
          Array.concat (List.map (fun m -> Machine.to_vector (Machine.result m)) machines) ))
      workloads
  in
  let names = Array.of_list (List.map W.Workload.id workloads) in
  let rows_ok = digest_rows names (Array.of_list (List.map snd runs)) = golden in
  let gen_secs, nested_ok = generator_self (List.map fst runs) in
  ( (("fleet.trace.gen_ns_per_instr", per_instr (gen_secs *. 1e9) instrs, "ns/instr")
    :: layer_metrics a ~instrs),
    [ ("fleet.rows", rows_ok); ("fleet.nested", nested_ok) ] )

let traced_select ~seed =
  let ctx, space_s = select_setup () in
  let p = select_pass ctx (ga_indices seed) in
  ( [
      ("core.space_build_ms", space_s *. 1000.0, "ms");
      ("select.ce_ms", p.ce_s *. 1000.0, "ms");
      ("select.ga_ms", p.ga_s *. 1000.0, "ms");
      ("select.ga_evals", float_of_int p.ga_evals, "count");
      ("select.ga_us_per_eval", p.ga_s *. 1e6 /. float_of_int p.ga_evals, "us/eval");
      ("select.ga_words_per_eval", p.ga_words /. float_of_int p.ga_evals, "words/eval");
      ("stats.cluster_ms", p.cluster_s *. 1000.0, "ms");
      ("stats.roc_ms", p.roc_s *. 1000.0, "ms");
    ],
    [ ("select.golden", select_ok p) ] )

let cmd_traced ~seed ~work =
  let c, c_ok = traced_characterize ~work in
  let f, f_ok = traced_fleet () in
  let s, s_ok = traced_select ~seed in
  print_json
    [
      ( "metrics",
        Json.Obj
          (List.map
             (fun (k, v, unit) -> (k, Json.Obj [ ("value", num v); ("unit", Json.Str unit) ]))
             (c @ f @ s)) );
      ("checks", Json.Obj (List.map (fun (k, ok) -> (k, Json.Bool ok)) (c_ok @ f_ok @ s_ok)));
    ]

(* ---------------- serve fixture ---------------- *)

(* The serve workload's warm cache (even registry indices, through
   Pipeline.datasets_report) and the direct Pipeline.characterize vectors
   its replies are checked against, as IEEE bit patterns. *)
let cmd_serve_fixture ~dir ~icount =
  let workloads = Array.of_list W.Registry.all in
  let pick parity =
    List.filteri (fun i _ -> i mod 2 = parity) (Array.to_list workloads)
  in
  let warm = pick 0 and cold = pick 1 in
  let cache_dir = Filename.concat dir "results/cache" in
  mkdir_p cache_dir;
  let config =
    { Pipeline.default_config with icount; cache_dir = Some cache_dir; jobs = pool_jobs;
      progress = false; run = None }
  in
  let _, _, report = Pipeline.datasets_report ~config warm in
  if not (Run_report.all_ok report) then failwith "serve fixture: warm characterization failed";
  let direct = { config with cache_dir = None; jobs = 1 } in
  let vector w =
    let m, h = Pipeline.characterize direct w in
    ( W.Workload.id w,
      Json.Obj
        [
          ("mica", Json.List (Array.to_list (Array.map (fun v -> Json.Str (bits_hex v)) m)));
          ("hpc", Json.List (Array.to_list (Array.map (fun v -> Json.Str (bits_hex v)) h)));
        ] )
  in
  let ids l = Json.List (List.map (fun w -> Json.Str (W.Workload.id w)) l) in
  let doc =
    Json.Obj
      [
        ("model_version", Json.Str Pipeline.model_version);
        ("icount", num (float_of_int icount));
        ("warm", ids warm);
        ("cold", ids cold);
        ("vectors", Json.Obj (List.map vector (warm @ cold)));
      ]
  in
  let tmp = Filename.concat dir "reference.json.tmp" in
  let oc = open_out tmp in
  output_string oc (Json.to_string doc);
  close_out oc;
  Sys.rename tmp (Filename.concat dir "reference.json");
  let count l = num (float_of_int (List.length l)) in
  print_json [ ("warm", count warm); ("cold", count cold) ]

(* ---------------- golden answers ---------------- *)

let cmd_golden = function
  | "characterize" ->
    let config = { Pipeline.default_config with icount = characterize_icount; cache_dir = None;
                   jobs = 1; progress = false; run = None } in
    let mica, hpc = Pipeline.datasets ~config W.Registry.all in
    print_endline (dataset_digest mica hpc)
  | "fleet" ->
    let configs = fleet_setup () in
    print_endline
      (fleet_digest (Fleet.characterize ~jobs:1 ~configs ~icount:fleet_icount W.Registry.all))
  | "select" ->
    let ctx, _ = select_setup () in
    print_endline (ce_digest (Experiments.run_ce ctx));
    let ce = Experiments.run_ce ctx in
    for k = 0 to ga_pool - 1 do
      let r = Experiments.run_ga ~config:ga_config ~seed:(ga_seed k) ctx in
      let fig4 = fig4_digest (Experiments.fig4 ctx ~ga:r ~ce) in
      let fig6 = fig6_digest (Experiments.fig6 ctx ~selected:r.Genetic.selected) in
      print_endline (ga_line k r ~fig4 ~fig6)
    done
  | other -> failwith ("golden: unknown workload " ^ other)

(* ---------------- command line ---------------- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let req name rest =
    match opt name rest with Some v -> v | None -> failwith ("missing " ^ name)
  in
  match args with
  | "characterize" :: rest ->
    cmd_characterize ~seconds:(float_of_string (req "--seconds" rest)) ~work:(req "--work" rest)
  | "fleet" :: rest -> cmd_fleet ~seconds:(float_of_string (req "--seconds" rest))
  | "select" :: rest ->
    cmd_select
      ~seconds:(float_of_string (req "--seconds" rest))
      ~seed:(int_of_string (req "--seed" rest))
  | [ "setup"; w; "--work"; work ] -> cmd_setup w ~work
  | "traced" :: rest ->
    cmd_traced ~seed:(int_of_string (req "--seed" rest)) ~work:(req "--work" rest)
  | "serve-fixture" :: rest ->
    cmd_serve_fixture ~dir:(req "--dir" rest) ~icount:(int_of_string (req "--icount" rest))
  | [ "golden"; w ] -> cmd_golden w
  | [ "model-version" ] -> print_endline Pipeline.model_version
  | _ ->
    prerr_endline
      "usage: bench.exe \
       (characterize|fleet|select|setup|traced|serve-fixture|golden|model-version) ...";
    exit 2
