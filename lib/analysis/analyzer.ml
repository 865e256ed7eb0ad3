type t = {
  mix : Mix.t;
  ilp : Ilp.t;
  regtraffic : Regtraffic.t;
  working_set : Working_set.t;
  strides : Strides.t;
  ppm : Ppm.t;
}

let create ?(ppm_order = 8) ?ilp_windows () =
  {
    mix = Mix.create ();
    ilp = Ilp.create ?windows:ilp_windows ();
    regtraffic = Regtraffic.create ();
    working_set = Working_set.create ();
    strides = Strides.create ();
    ppm = Ppm.create ~order:ppm_order ();
  }

(* Per-family chunk-time spans.  One atomic load per chunk per family when
   metrics are off, and no allocation: the span's closure is only built
   when metrics are on.  Per-chunk granularity (4096 instructions) keeps
   the enabled-path cost negligible too. *)
let timed name (s : Mica_trace.Sink.t) =
  let on_chunk = s.Mica_trace.Sink.on_chunk in
  {
    s with
    Mica_trace.Sink.on_chunk =
      (fun c ->
        if Mica_obs.Obs.enabled () then Mica_obs.Obs.span name (fun () -> on_chunk c)
        else on_chunk c);
  }

let sink t =
  let fanout =
    Mica_trace.Sink.fanout
      [
        timed "analyzer.mix" (Mix.sink t.mix);
        timed "analyzer.ilp" (Ilp.sink t.ilp);
        timed "analyzer.regtraffic" (Regtraffic.sink t.regtraffic);
        timed "analyzer.working_set" (Working_set.sink t.working_set);
        timed "analyzer.strides" (Strides.sink t.strides);
        timed "analyzer.ppm" (Ppm.sink t.ppm);
      ]
  in
  (* Fault-injection point: an analyzer failure at chunk granularity,
     before the sub-analyzers see the chunk.  The wrapper only exists when
     a plan is installed at sink-construction time, so the normal path is
     the bare fanout. *)
  if not (Mica_util.Fault.enabled ()) then fanout
  else begin
    let fed = ref 0 in
    Mica_trace.Sink.make ~name:"analyzer" (fun chunk ->
        Mica_util.Fault.check Mica_util.Fault.Analyzer_chunk ~key:!fed;
        incr fed;
        fanout.Mica_trace.Sink.on_chunk chunk)
  end

let mix t = Mix.result t.mix
let ilp_ipc t = Ilp.ipc t.ilp
let regtraffic t = Regtraffic.result t.regtraffic
let working_set t = Working_set.result t.working_set
let strides t = Strides.result t.strides
let ppm_miss_rates t = Ppm.to_vector t.ppm
let instructions t = Ilp.instructions t.ilp

let vector t =
  let v =
    Array.concat
      [
        Mix.to_vector (mix t);
        ilp_ipc t;
        Regtraffic.to_vector (regtraffic t);
        Working_set.to_vector (working_set t);
        Strides.to_vector (strides t);
        ppm_miss_rates t;
      ]
  in
  assert (Array.length v = Characteristics.count);
  v

let analyze_full ?ppm_order program ~icount =
  let t = create ?ppm_order () in
  let (_ : int) = Mica_trace.Generator.run program ~icount ~sink:(sink t) in
  t

let analyze ?ppm_order program ~icount = vector (analyze_full ?ppm_order program ~icount)
