(** One-pass fleet characterization: the corpus against N machine models.

    Each workload's trace is generated exactly once and fanned out to all
    N machine sinks ({!Mica_uarch.Machine.measure_all}); workloads run
    pool-parallel.  One pass saves the N - 1 repeated trace generations
    of N single-machine passes.  That saving is modest: the machine
    models, not the generator, are the larger cost — over the registry at
    50k instructions the 8 [machines/*.json] models together cost about
    12x the generator's ns/instr (about 18x before their per-instruction
    allocations were removed).  The result is bit-identical to N passes,
    which {!characterize_n_pass} exists to prove (and to serve as the
    benchmark baseline). *)

type t = {
  machine_names : string array;
  metric_names : string array;  (** {!Mica_uarch.Machine.metric_names} *)
  workload_ids : string array;
  matrix : float array array;
      (** [workloads x (machines * metrics)], machine-major columns: the
          six counters of machine 0, then of machine 1, ... *)
  icount : int;
}

val characterize :
  ?jobs:int ->
  configs:Mica_uarch.Machine.config list ->
  icount:int ->
  Mica_workloads.Workload.t list ->
  t
(** One chunk pass per workload fanned out to every machine.  [jobs]
    defaults to [Pool.default_jobs ()]; results are bit-identical at any
    [jobs].  Raises [Invalid_argument] on an empty config list or
    duplicate machine names. *)

val characterize_n_pass :
  configs:Mica_uarch.Machine.config list ->
  icount:int ->
  Mica_workloads.Workload.t list ->
  t
(** The sequential oracle: one full corpus pass per machine, regenerating
    each workload's trace N times.  Must equal {!characterize}
    bit-for-bit. *)

val column_names : t -> string array
(** ["<machine>.<metric>"], machine-major, matching [matrix] columns. *)

val to_table : t -> Mica_run.Run_dir.table
(** The N×6-per-workload counter matrix as a run-directory table. *)

val machine_dataset : t -> int -> Dataset.t
(** [machine_dataset t m] is machine [m]'s 6-metric slice of the matrix. *)

type report_row = {
  machine : string;
  mica_corr : float;
      (** distance correlation of this machine's counter space with the
          microarchitecture-independent space ([nan] when not supplied) *)
  hpc_corr : float option;
}

type report = {
  rows : report_row list;
  cross : (string * string * float) list;
      (** distance correlation for each machine pair *)
}

val report : ?mica:Space.t -> ?hpc:Space.t -> t -> report
(** Builds each machine's counter {!Space} and correlates benchmark
    distances across machines and against the supplied reference
    spaces. *)

val render_report : report -> string
