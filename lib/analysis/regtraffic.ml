module Reg = Mica_isa.Reg
module Chunk = Mica_trace.Chunk

let dep_cutoffs = [| 1; 2; 4; 8; 16; 32; 64 |]

type t = {
  mutable instrs : int;
  mutable operands : int;  (* total register source operands seen *)
  last_write : int array;  (* dynamic index of last write per register, -1 if never *)
  uses : int array;  (* reads of the current instance per register *)
  mutable instances : int;  (* completed register instances *)
  mutable total_uses : int;  (* reads accumulated over completed instances *)
  dep_counts : int array;  (* histogram over cutoffs; last bucket = "> 64" *)
  mutable dep_total : int;
}

type result = { avg_input_operands : float; avg_degree_of_use : float; dep_cdf : float array }

let create () =
  {
    instrs = 0;
    operands = 0;
    last_write = Array.make Reg.count (-1);
    uses = Array.make Reg.count 0;
    instances = 0;
    total_uses = 0;
    dep_counts = Array.make (Array.length dep_cutoffs + 1) 0;
    dep_total = 0;
  }

(* Histogram bucket of every distance up to the last cutoff, computed once:
   the first cutoff [>= d].  Longer distances fall in the "> 64" bucket. *)
let max_cutoff = dep_cutoffs.(Array.length dep_cutoffs - 1)

let bucket_table =
  Array.init (max_cutoff + 1) (fun d ->
      let rec first i = if d <= dep_cutoffs.(i) then i else first (i + 1) in
      first 0)

let bucket_of_distance d = if d > max_cutoff then Array.length dep_cutoffs else bucket_table.(d)

let read t r =
  if not (Reg.is_none r) then begin
    t.operands <- t.operands + 1;
    if Reg.carries_dependency r then begin
      t.uses.(r) <- t.uses.(r) + 1;
      let lw = t.last_write.(r) in
      if lw >= 0 then begin
        let d = t.instrs - lw in
        let b = bucket_of_distance d in
        t.dep_counts.(b) <- t.dep_counts.(b) + 1;
        t.dep_total <- t.dep_total + 1
      end
    end
  end

let write t r =
  if Reg.carries_dependency r then begin
    (* finalize the instance being overwritten *)
    if t.last_write.(r) >= 0 then begin
      t.instances <- t.instances + 1;
      t.total_uses <- t.total_uses + t.uses.(r)
    end;
    t.uses.(r) <- 0;
    t.last_write.(r) <- t.instrs
  end

let sink t =
  Mica_trace.Sink.make ~name:"regtraffic" (fun c ->
      let len = c.Chunk.len in
      let src1 = c.Chunk.src1 and src2 = c.Chunk.src2 and dst = c.Chunk.dst in
      for i = 0 to len - 1 do
        t.instrs <- t.instrs + 1;
        read t (Array.unsafe_get src1 i);
        read t (Array.unsafe_get src2 i);
        write t (Array.unsafe_get dst i)
      done)

let reset t =
  t.instrs <- 0;
  t.operands <- 0;
  Array.fill t.last_write 0 (Array.length t.last_write) (-1);
  Array.fill t.uses 0 (Array.length t.uses) 0;
  t.instances <- 0;
  t.total_uses <- 0;
  Array.fill t.dep_counts 0 (Array.length t.dep_counts) 0;
  t.dep_total <- 0

let result t =
  (* flush live instances *)
  let instances = ref t.instances and total_uses = ref t.total_uses in
  Array.iteri
    (fun r lw ->
      if lw >= 0 then begin
        incr instances;
        total_uses := !total_uses + t.uses.(r)
      end)
    t.last_write;
  let cdf = Array.make (Array.length dep_cutoffs) 0.0 in
  let denom = float_of_int (max 1 t.dep_total) in
  let acc = ref 0 in
  Array.iteri
    (fun i _ ->
      acc := !acc + t.dep_counts.(i);
      cdf.(i) <- float_of_int !acc /. denom)
    cdf;
  {
    avg_input_operands = float_of_int t.operands /. float_of_int (max 1 t.instrs);
    avg_degree_of_use = float_of_int !total_uses /. float_of_int (max 1 !instances);
    dep_cdf = cdf;
  }

let to_vector r = Array.append [| r.avg_input_operands; r.avg_degree_of_use |] r.dep_cdf
