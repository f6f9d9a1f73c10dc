(** Word-addressed simulated memory with an allocator.

    Addresses are word indices into a paged store.  Every allocation is
    recorded as a {!block} carrying the allocating thread and call
    stack, so that race reports can print the Valgrind-style
    "Address 0x... is N bytes inside a block of size M alloc'd by
    thread T" footer (Figure 9 of the paper).

    Freed blocks go to size-segregated free lists and are reused LIFO,
    like a production malloc; a size with no freed block is bump
    allocated past the break. *)

module Loc = Raceguard_util.Loc
module Growvec = Raceguard_util.Growvec

let page_bits = 12
let page_size = 1 lsl page_bits

type block = {
  base : int;
  len : int;
  alloc_tid : int;
  alloc_loc : Loc.t;
  alloc_stack : Loc.t list;
  mutable freed : bool;
}

type t = {
  pages : int array Growvec.t;  (** values *)
  owners : int array Growvec.t;  (** word -> block base, or -1 *)
  mutable brk : int;
  blocks : (int, block) Hashtbl.t;  (** base -> block *)
  free_lists : (int, int list ref) Hashtbl.t;  (** len -> bases *)
  mutable live_words : int;
  mutable total_allocs : int;
}

let create () =
  {
    pages = Growvec.create ~dummy:[||];
    owners = Growvec.create ~dummy:[||];
    brk = 1;
    (* address 0 is reserved as the null pointer *)
    blocks = Hashtbl.create 1024;
    free_lists = Hashtbl.create 64;
    live_words = 0;
    total_allocs = 0;
  }

let null = 0

let ensure_page t i =
  while Growvec.length t.pages <= i do
    ignore (Growvec.push t.pages (Array.make page_size 0));
    ignore (Growvec.push t.owners (Array.make page_size (-1)))
  done

let check_addr t addr =
  if addr <= 0 || addr >= t.brk then
    Fmt.invalid_arg "Memory: address %#x out of bounds (brk=%#x)" addr t.brk

let get t addr =
  check_addr t addr;
  (Growvec.get t.pages (addr lsr page_bits)).(addr land (page_size - 1))

let set t addr v =
  check_addr t addr;
  (Growvec.get t.pages (addr lsr page_bits)).(addr land (page_size - 1)) <- v

let owner_base t addr =
  if addr <= 0 || addr >= t.brk then -1
  else (Growvec.get t.owners (addr lsr page_bits)).(addr land (page_size - 1))

let set_owner t addr base =
  (Growvec.get t.owners (addr lsr page_bits)).(addr land (page_size - 1)) <- base

let block_of t addr =
  match owner_base t addr with
  | -1 -> None
  | base -> Hashtbl.find_opt t.blocks base

let fresh_range t len =
  let base = t.brk in
  t.brk <- t.brk + len;
  ensure_page t ((t.brk - 1) lsr page_bits);
  base

let alloc t ~tid ~loc ~stack ~len =
  if len <= 0 then invalid_arg "Memory.alloc: len must be positive";
  t.total_allocs <- t.total_allocs + 1;
  t.live_words <- t.live_words + len;
  let base =
    match Hashtbl.find_opt t.free_lists len with
    | Some ({ contents = base :: rest } as cell) ->
        cell := rest;
        base
    | _ -> fresh_range t len
  in
  let block = { base; len; alloc_tid = tid; alloc_loc = loc; alloc_stack = stack; freed = false } in
  Hashtbl.replace t.blocks base block;
  for i = base to base + len - 1 do
    set_owner t i base;
    set t i 0
  done;
  base

let free t ~addr =
  match Hashtbl.find_opt t.blocks addr with
  | None -> Fmt.invalid_arg "Memory.free: %#x is not a block base" addr
  | Some b when b.freed -> Fmt.invalid_arg "Memory.free: double free of %#x" addr
  | Some b ->
      b.freed <- true;
      t.live_words <- t.live_words - b.len;
      let cell =
        match Hashtbl.find_opt t.free_lists b.len with
        | Some c -> c
        | None ->
            let c = ref [] in
            Hashtbl.replace t.free_lists b.len c;
            c
      in
      cell := addr :: !cell;
      b.len

let live_words t = t.live_words
let total_allocs t = t.total_allocs
let words_used t = t.brk
