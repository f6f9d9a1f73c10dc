(** Source locations for the simulated programs.

    Reports produced by the detectors print Valgrind-style call stacks,
    so every memory access and synchronisation operation in a simulated
    application carries a [Loc.t] naming the (pseudo) source position
    that performed it. *)

type t = { file : string; func : string; line : int }

let v file func line = { file; func; line }

let unknown = { file = "<unknown>"; func = "<unknown>"; line = 0 }

let file t = t.file
let func t = t.func
let line t = t.line

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = compare a.line b.line in
    if c <> 0 then c else String.compare a.func b.func

(* [==] first: the VM hands tools the same record between events *)
let equal a b = a == b || (a.line = b.line && String.equal a.func b.func && String.equal a.file b.file)

(* The line and the two string lengths, mixed without allocating: no
   string is hashed.  Locations that differ only in their text collide
   here and are told apart by [equal]. *)
let hash t =
  let h = (((t.line * 65599) + String.length t.file) * 65599) + String.length t.func in
  (h lxor (h lsr 17)) land max_int

let pp ppf t = Fmt.pf ppf "%s (%s:%d)" t.func t.file t.line

let to_string t = Fmt.str "%a" pp t
