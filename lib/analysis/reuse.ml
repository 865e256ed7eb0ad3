module Opcode = Mica_isa.Opcode
module Chunk = Mica_trace.Chunk

(* Growable Fenwick (binary indexed) tree over 1-based positions. *)
module Fenwick = struct
  type t = { mutable tree : int array (* length = capacity + 1 *) }

  let create () = { tree = Array.make 2 0 }

  let capacity t = Array.length t.tree - 1

  let add t i delta =
    let n = capacity t in
    let i = ref i in
    while !i <= n do
      t.tree.(!i) <- t.tree.(!i) + delta;
      i := !i + (!i land - !i)
    done

  let prefix t i =
    let acc = ref 0 and i = ref (Int.min i (capacity t)) in
    while !i > 0 do
      acc := !acc + t.tree.(!i);
      i := !i - (!i land - !i)
    done;
    !acc

  (* double the capacity, re-adding the currently marked positions *)
  let grow t marked =
    let new_cap = Int.max 2 (2 * capacity t) in
    t.tree <- Array.make (new_cap + 1) 0;
    Hashtbl.iter (fun _ pos -> add t pos 1) marked

  let ensure t i marked =
    while i > capacity t do
      grow t marked
    done
end

type t = {
  block_shift : int;
  fenwick : Fenwick.t;
  last_pos : (int, int) Hashtbl.t;  (* block -> most recent access position *)
  histogram : (int, int) Hashtbl.t;  (* finite reuse distance -> count *)
  mutable time : int;  (* 1-based position counter *)
  mutable accesses : int;
  mutable cold : int;
}

let create ?(block_bytes = 32) () =
  if block_bytes <= 0 || block_bytes land (block_bytes - 1) <> 0 then
    invalid_arg "Reuse.create: block_bytes must be a positive power of two";
  let rec log2 n acc = if n = 1 then acc else log2 (n lsr 1) (acc + 1) in
  {
    block_shift = log2 block_bytes 0;
    fenwick = Fenwick.create ();
    last_pos = Hashtbl.create 4096;
    histogram = Hashtbl.create 1024;
    time = 0;
    accesses = 0;
    cold = 0;
  }

let record_distance t d =
  Hashtbl.replace t.histogram d (1 + Option.value (Hashtbl.find_opt t.histogram d) ~default:0)

let access t addr =
  let block = addr lsr t.block_shift in
  t.time <- t.time + 1;
  t.accesses <- t.accesses + 1;
  Fenwick.ensure t.fenwick t.time t.last_pos;
  (match Hashtbl.find_opt t.last_pos block with
  | Some p ->
    (* distinct blocks touched since position p = marks in (p, now) *)
    let marks_after_p = Fenwick.prefix t.fenwick (t.time - 1) - Fenwick.prefix t.fenwick p in
    record_distance t marks_after_p;
    Fenwick.add t.fenwick p (-1)
  | None -> t.cold <- t.cold + 1);
  Fenwick.add t.fenwick t.time 1;
  Hashtbl.replace t.last_pos block t.time

let is_mem_code = Array.init Opcode.count (fun i -> Opcode.is_mem (Opcode.of_int i))

let sink t =
  Mica_trace.Sink.make ~name:"reuse" (fun c ->
      let len = c.Chunk.len in
      let ops = c.Chunk.op and addrs = c.Chunk.addr in
      for i = 0 to len - 1 do
        if Array.unsafe_get is_mem_code (Array.unsafe_get ops i) then
          access t (Array.unsafe_get addrs i)
      done)

let accesses t = t.accesses
let cold_misses t = t.cold

let default_cutoffs = [| 4; 16; 64; 256; 1024; 4096; 16384; 65536 |]

let cdf t cutoffs =
  let denom = float_of_int (max 1 t.accesses) in
  Array.map
    (fun c ->
      let count =
        Hashtbl.fold (fun d n acc -> if d <= c then acc + n else acc) t.histogram 0
      in
      float_of_int count /. denom)
    cutoffs

let miss_rate_for_capacity t ~blocks =
  if t.accesses = 0 then 0.0
  else begin
    let hits =
      Hashtbl.fold (fun d n acc -> if d < blocks then acc + n else acc) t.histogram 0
    in
    float_of_int (t.accesses - hits) /. float_of_int t.accesses
  end

let mean_log2 t =
  let sum = ref 0.0 and n = ref 0 in
  Hashtbl.iter
    (fun d c ->
      sum := !sum +. (float_of_int c *. (log (float_of_int (d + 1)) /. log 2.0));
      n := !n + c)
    t.histogram;
  if !n = 0 then 0.0 else !sum /. float_of_int !n
