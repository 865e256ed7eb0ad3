module Opcode = Mica_isa.Opcode
module Chunk = Mica_trace.Chunk

type variant = GAg | PAg | GAs | PAs

let all_variants = [ GAg; PAg; GAs; PAs ]

let variant_name = function GAg -> "GAg" | PAg -> "PAg" | GAs -> "GAs" | PAs -> "PAs"

let uses_local_history = function PAg | PAs -> true | GAg | GAs -> false
let uses_per_address_table = function GAs | PAs -> true | GAg | PAg -> false

module Int_map = Mica_util.Int_map

(* One predictor keeps all its contexts in [blocks], a flat int array cut
   into blocks of [block_size = 2^(order+1) - 1] counters.  A block holds
   every context for one pc part (0 for the shared-table variants, the
   branch pc for the per-address ones): order [k]'s [2^k] histories sit at
   offsets [2^k - 1 + h_k], so the orders 0..order tile the block without
   overlap.  [block_of] maps a pc part to its block's first index. *)
type predictor = {
  variant : variant;
  order : int;
  block_size : int;
  block_of : Int_map.t;  (* pc part -> offset of its block in [blocks] *)
  mutable blocks : int array;  (* packed (taken, not_taken) counters *)
  mutable used : int;  (* counters in use: [block_size] times the blocks handed out *)
  mutable misses : int;
}

type t = {
  predictors : predictor array;
  local_hist : Int_map.t;  (* per-branch outcome history *)
  mutable ghist : int;
  order : int;
  mutable branches : int;
}

(* A context entry packs both saturating-free counters into one int:
   taken in the low 31 bits, not-taken above them.  Branch counts are
   bounded by the trace length, far below 2^31, so the halves cannot
   collide. *)
let taken_one = 1
let not_taken_one = 1 lsl 31
let mask31 = (1 lsl 31) - 1

let make_predictor ~order variant =
  let block_size = (1 lsl (order + 1)) - 1 in
  {
    variant;
    order;
    block_size;
    block_of = Int_map.create ~initial:8 ();
    blocks = Array.make block_size 0;
    used = 0;
    misses = 0;
  }

let create ?(order = 8) ?(variants = all_variants) () =
  assert (order >= 0 && order <= 16);
  {
    predictors = Array.of_list (List.map (make_predictor ~order) variants);
    local_hist = Int_map.create ~initial:512 ();
    ghist = 0;
    order;
    branches = 0;
  }

(* The block for [pc_part], handed out zeroed on first sight; the array
   doubles when full, so growth is amortized over the static branches. *)
let block_base p pc_part =
  let base = Int_map.find p.block_of pc_part ~default:(-1) in
  if base >= 0 then base
  else begin
    let base = p.used in
    if base + p.block_size > Array.length p.blocks then begin
      let grown = Array.make (2 * Array.length p.blocks) 0 in
      Array.blit p.blocks 0 grown 0 base;
      p.blocks <- grown
    end;
    p.used <- base + p.block_size;
    Int_map.set p.block_of pc_part base;
    base
  end

(* Predict and update in one descending walk over orders [order..0]: the
   longest context seen before (a counter is non-zero once updated, since
   the packed halves are never both zero) gives the majority prediction,
   defaulting to taken when no context has been seen; every order's
   counter is then bumped.  Orders own disjoint slots, so bumping order
   [k] before reading order [k - 1] cannot change the prediction. *)
let observe_predictor p ~pc ~hist ~outcome =
  let pc_part = if uses_per_address_table p.variant then pc else 0 in
  let base = block_base p pc_part in
  let blocks = p.blocks in
  let delta = if outcome then taken_one else not_taken_one in
  let seen = ref false and guess = ref true in
  for k = p.order downto 0 do
    let i = base + (1 lsl k) - 1 + (hist land ((1 lsl k) - 1)) in
    let c = Array.unsafe_get blocks i in
    if (not !seen) && c > 0 then begin
      seen := true;
      guess := c land mask31 >= c lsr 31
    end;
    Array.unsafe_set blocks i (c + delta)
  done;
  if !guess <> outcome then p.misses <- p.misses + 1

let observe t ~pc ~outcome =
  t.branches <- t.branches + 1;
  let lhist = Int_map.find t.local_hist pc ~default:0 in
  for v = 0 to Array.length t.predictors - 1 do
    let p = Array.unsafe_get t.predictors v in
    let hist = if uses_local_history p.variant then lhist else t.ghist in
    observe_predictor p ~pc ~hist ~outcome
  done;
  let bit = Bool.to_int outcome in
  Int_map.set t.local_hist pc (((lhist lsl 1) lor bit) land 0xFFFF);
  t.ghist <- ((t.ghist lsl 1) lor bit) land 0xFFFF

let op_branch = Opcode.to_int Opcode.Branch

let sink t =
  Mica_trace.Sink.make ~name:"ppm" (fun c ->
      let len = c.Chunk.len in
      let ops = c.Chunk.op and pcs = c.Chunk.pc and taken = c.Chunk.taken in
      for i = 0 to len - 1 do
        if Array.unsafe_get ops i = op_branch then
          observe t ~pc:(Array.unsafe_get pcs i)
            ~outcome:(Bytes.unsafe_get taken i <> '\000')
      done)

let miss_rate t variant =
  if t.branches = 0 then 0.0
  else
    let p = Array.to_list t.predictors |> List.find (fun p -> p.variant = variant) in
    float_of_int p.misses /. float_of_int t.branches

let branches t = t.branches

let to_vector t =
  let present v = Array.exists (fun p -> p.variant = v) t.predictors in
  Array.of_list (List.filter present all_variants |> List.map (miss_rate t))
