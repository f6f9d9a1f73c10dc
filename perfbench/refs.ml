(* Pinned correctness references ([perfbench-reference/1]), one file
   per seed: [<dir>/seed-<n>.json].

   One table per workload maps an item key ("T3", "oom/T5/base",
   "T2/fasttrack") to the fields its output must reproduce: report
   signature digests, behaviour digests, replay verdicts.  A seed
   without a file, or a workload without a table in it, falls back to
   the checks that need no pin. *)

module Json = Raceguard_obs.Json

type entry = (string * string) list
type table = (string * entry) list

let schema = "perfbench-reference/1"
let path ~dir ~seed = Filename.concat dir (Printf.sprintf "seed-%d.json" seed)

let entry_of_json = function
  | Json.Obj fields ->
      List.map
        (fun (k, v) ->
          match v with Json.Str s -> (k, s) | _ -> failwith ("non-string field " ^ k))
        fields
  | _ -> failwith "entry is not an object"

(* The pinned tables for [seed]: [Ok []] when nothing is pinned for it,
   [Error] when a file exists but cannot be read. *)
let load ~dir ~seed =
  let file = path ~dir ~seed in
  if not (Sys.file_exists file) then Ok []
  else
    match Json.parse (In_channel.with_open_text file In_channel.input_all) with
    | Error e -> Error (file ^ ": " ^ e)
    | Ok doc -> (
        let field k = Json.member k doc in
        match (Option.bind (field "schema") Json.to_string_opt, field "seed", field "workloads") with
        | Some s, Some (Json.Num n), Some (Json.Obj tables) when s = schema && n = float_of_int seed -> (
            try
              Ok
                (List.map
                   (fun (w, t) ->
                     match t with
                     | Json.Obj items -> (w, List.map (fun (k, e) -> (k, entry_of_json e)) items)
                     | _ -> failwith ("table " ^ w ^ " is not an object"))
                   tables)
            with Failure e -> Error (file ^ ": " ^ e))
        | _ -> Error (file ^ ": not a " ^ schema ^ " document for seed " ^ string_of_int seed))

(* One item per line, so a changed digest shows as a one-line diff. *)
let save ~dir ~seed tables =
  let file = path ~dir ~seed in
  let item (k, e) =
    Printf.sprintf "   %S: %s" k (Json.to_string (Json.Obj (List.map (fun (f, v) -> (f, Json.Str v)) e)))
  in
  let table (w, items) = Printf.sprintf "  %S: {\n%s\n  }" w (String.concat ",\n" (List.map item items)) in
  Out_channel.with_open_text file (fun oc ->
      Printf.fprintf oc "{\n \"schema\": %S,\n \"seed\": %d,\n \"workloads\": {\n%s\n }\n}\n" schema seed
        (String.concat ",\n" (List.map table tables)))

(* [pinned] is [None] when there is nothing to compare against; an item
   missing from a pinned table is a deviation. *)
let matches (pinned : table option) key (computed : entry) =
  match pinned with
  | None -> true
  | Some table -> (
      match List.assoc_opt key table with
      | None -> false
      | Some e -> List.sort compare e = List.sort compare computed)

(* Flip the last character of the first field of the first item: the
   deliberately corrupted reference of the self-test. *)
let corrupt_first (table : table) =
  match table with
  | (key, (f, v) :: rest) :: items when v <> "" ->
      let last = v.[String.length v - 1] in
      let flipped = String.sub v 0 (String.length v - 1) ^ if last = '0' then "1" else "0" in
      (key, (f, flipped) :: rest) :: items
  | _ -> failwith "nothing to corrupt in an empty reference table"
