module Opcode = Mica_isa.Opcode
module Chunk = Mica_trace.Chunk
module Int_map = Mica_util.Int_map

type result = { data_blocks : int; data_pages : int; instr_blocks : int; instr_pages : int }

(* [Int_map] used as a set: one multiplicative-hash probe per touch,
   no allocation, no boxing.  Block and page numbers are address shifts,
   so the non-negative-key requirement holds.  [last] is the key touched
   most recently: consecutive instructions mostly share a block and a
   page, and since adding a present key changes nothing, a repeat skips
   the probe. *)
type set = { keys : Int_map.t; mutable last : int }

type t = { d_blocks : set; d_pages : set; i_blocks : set; i_pages : set }

let make_set initial = { keys = Int_map.create ~initial (); last = -1 }

let create () =
  {
    d_blocks = make_set 4096;
    d_pages = make_set 256;
    i_blocks = make_set 1024;
    i_pages = make_set 64;
  }

let touch s key =
  if key <> s.last then begin
    Int_map.add_if_absent s.keys key;
    s.last <- key
  end

let is_mem_code = Array.init Opcode.count (fun i -> Opcode.is_mem (Opcode.of_int i))

let sink t =
  Mica_trace.Sink.make ~name:"working_set" (fun c ->
      let len = c.Chunk.len in
      let pcs = c.Chunk.pc and ops = c.Chunk.op and addrs = c.Chunk.addr in
      for i = 0 to len - 1 do
        let pc = Array.unsafe_get pcs i in
        touch t.i_blocks (pc lsr 5);
        touch t.i_pages (pc lsr 12);
        if Array.unsafe_get is_mem_code (Array.unsafe_get ops i) then begin
          let addr = Array.unsafe_get addrs i in
          touch t.d_blocks (addr lsr 5);
          touch t.d_pages (addr lsr 12)
        end
      done)

let result t =
  {
    data_blocks = Int_map.length t.d_blocks.keys;
    data_pages = Int_map.length t.d_pages.keys;
    instr_blocks = Int_map.length t.i_blocks.keys;
    instr_pages = Int_map.length t.i_pages.keys;
  }

let to_vector r =
  [|
    float_of_int r.data_blocks;
    float_of_int r.data_pages;
    float_of_int r.instr_blocks;
    float_of_int r.instr_pages;
  |]
