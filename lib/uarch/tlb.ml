type t = {
  page_shift : int;
  pages : int array;  (* -1 = invalid *)
  stamps : int array;
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
}

let create ~entries ~page_bytes =
  if entries <= 0 then invalid_arg "Tlb.create: entries must be positive";
  if page_bytes <= 0 || page_bytes land (page_bytes - 1) <> 0 then
    invalid_arg "Tlb.create: page_bytes must be a power of two";
  let rec log2 n acc = if n = 1 then acc else log2 (n lsr 1) (acc + 1) in
  {
    page_shift = log2 page_bytes 0;
    pages = Array.make entries (-1);
    stamps = Array.make entries 0;
    clock = 0;
    accesses = 0;
    misses = 0;
  }

(* Slot holding [page], or -1.  A page is resident at most once (a miss
   installs it only after this scan found it absent), so stopping at the
   first match gives the same slot as scanning every entry.  [int]
   annotations as in [Cache.find_way]. *)
let rec find_page (pages : int array) (page : int) i n =
  if i >= n then -1 else if Array.unsafe_get pages i = page then i else find_page pages page (i + 1) n

let access t addr =
  t.accesses <- t.accesses + 1;
  t.clock <- t.clock + 1;
  let page = addr lsr t.page_shift in
  let n = Array.length t.pages in
  let hit = find_page t.pages page 0 n in
  if hit >= 0 then begin
    t.stamps.(hit) <- t.clock;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    let victim = ref 0 in
    for i = 1 to n - 1 do
      if t.stamps.(i) < t.stamps.(!victim) then victim := i
    done;
    t.pages.(!victim) <- page;
    t.stamps.(!victim) <- t.clock;
    false
  end

let access_range t addr ~bytes =
  if bytes <= 0 then invalid_arg "Tlb.access_range: bytes must be positive";
  let first = addr lsr t.page_shift and last = (addr + bytes - 1) lsr t.page_shift in
  let all_hit = ref true in
  for page = first to last do
    if not (access t (page lsl t.page_shift)) then all_hit := false
  done;
  !all_hit

let resident_pages t = Array.fold_right (fun p acc -> if p >= 0 then p :: acc else acc) t.pages []

let accesses t = t.accesses
let misses t = t.misses
let miss_rate t = if t.accesses = 0 then 0.0 else float_of_int t.misses /. float_of_int t.accesses

let reset_counters t =
  t.accesses <- 0;
  t.misses <- 0
