type t = {
  name : string;
  line_shift : int;
  set_shift : int;
  set_mask : int;
  assoc : int;
  n_sets : int;
  tags : int array;  (* n_sets * assoc; -1 = invalid *)
  stamps : int array;  (* LRU timestamps, parallel to [tags] *)
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
  line_bytes : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go n acc = if n = 1 then acc else go (n lsr 1) (acc + 1) in
  go n 0

let create ~name ~size_bytes ~line_bytes ~assoc =
  if not (is_pow2 line_bytes) then invalid_arg "Cache.create: line size must be a power of two";
  if assoc <= 0 then invalid_arg "Cache.create: assoc must be positive";
  if size_bytes < line_bytes * assoc then
    invalid_arg "Cache.create: size must cover at least one set";
  (* Integer division here would silently shrink the cache; a size that is
     not a whole number of sets is a specification bug, so reject it. *)
  if size_bytes mod (line_bytes * assoc) <> 0 then
    invalid_arg "Cache.create: size must be a whole number of sets (a multiple of line_bytes * assoc)";
  let n_sets = size_bytes / (line_bytes * assoc) in
  if not (is_pow2 n_sets) then invalid_arg "Cache.create: set count must be a power of two";
  {
    name;
    line_shift = log2 line_bytes;
    set_shift = log2 n_sets;
    set_mask = n_sets - 1;
    assoc;
    n_sets;
    tags = Array.make (n_sets * assoc) (-1);
    stamps = Array.make (n_sets * assoc) 0;
    clock = 0;
    accesses = 0;
    misses = 0;
    line_bytes;
  }

let name t = t.name
let sets t = t.n_sets
let line_bytes t = t.line_bytes
let assoc t = t.assoc

(* Lookups run on every I-fetch, D-access and L2 access, so they must not
   allocate (DESIGN.md §8): each caller derives the set base and tag
   itself and the way search returns a bare slot index. *)
let set_base t line = (line land t.set_mask) * t.assoc
let line_tag t line = line lsr t.set_shift

(* Slot of [tag] among the ways [base, stop), or -1 on a miss.  The [int]
   annotations keep [=] an integer compare rather than a [caml_equal]
   call. *)
let rec find_way (tags : int array) (tag : int) i stop =
  if i >= stop then -1 else if Array.unsafe_get tags i = tag then i else find_way tags tag (i + 1) stop

(* Replace the least recently used way of the set at [base] with [tag]. *)
let fill t base tag =
  let victim = ref base in
  for i = base + 1 to base + t.assoc - 1 do
    if t.stamps.(i) < t.stamps.(!victim) then victim := i
  done;
  t.tags.(!victim) <- tag;
  t.stamps.(!victim) <- t.clock

let access t addr =
  t.accesses <- t.accesses + 1;
  t.clock <- t.clock + 1;
  let line = addr lsr t.line_shift in
  let base = set_base t line and tag = line_tag t line in
  let idx = find_way t.tags tag base (base + t.assoc) in
  if idx >= 0 then begin
    t.stamps.(idx) <- t.clock;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    fill t base tag;
    false
  end

let access_range t addr ~bytes =
  if bytes <= 0 then invalid_arg "Cache.access_range: bytes must be positive";
  let first = addr lsr t.line_shift and last = (addr + bytes - 1) lsr t.line_shift in
  let all_hit = ref true in
  for line = first to last do
    if not (access t (line lsl t.line_shift)) then all_hit := false
  done;
  !all_hit

let probe t addr =
  let line = addr lsr t.line_shift in
  let base = set_base t line in
  find_way t.tags (line_tag t line) base (base + t.assoc) >= 0

let install t addr =
  t.clock <- t.clock + 1;
  let line = addr lsr t.line_shift in
  let base = set_base t line and tag = line_tag t line in
  let idx = find_way t.tags tag base (base + t.assoc) in
  if idx >= 0 then t.stamps.(idx) <- t.clock else fill t base tag

let accesses t = t.accesses
let misses t = t.misses

let miss_rate t =
  if t.accesses = 0 then 0.0 else float_of_int t.misses /. float_of_int t.accesses

let reset_counters t =
  t.accesses <- 0;
  t.misses <- 0
