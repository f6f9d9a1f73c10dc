(** A minimal JSON value: printer and recursive-descent parser.

    The observability layer emits machine-readable artefacts (metrics
    snapshots, Chrome [trace_event] files, warning provenance) and the
    test-suite must round-trip them; pulling a JSON library into the
    build for that would be the only external dependency of the whole
    repo, so we keep a ~150-line self-contained implementation here.
    Numbers are floats (like JavaScript); object member order is
    preserved. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let int i = Num (float_of_int i)

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

(* JSON has no nan or infinity: every non-finite number prints as null *)
let add_num b x =
  if not (Float.is_finite x) then Buffer.add_string b "null"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.0f" x)
  else Buffer.add_string b (Printf.sprintf "%.17g" x)

let rec emit ~indent ~level b v =
  let pad n = if indent > 0 then Buffer.add_string b (String.make (n * indent) ' ') in
  let nl () = if indent > 0 then Buffer.add_char b '\n' in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Num x -> add_num b x
  | Str s ->
      Buffer.add_char b '"';
      escape b s;
      Buffer.add_char b '"'
  | List [] -> Buffer.add_string b "[]"
  | List xs ->
      Buffer.add_char b '[';
      nl ();
      List.iteri
        (fun i x ->
          if i > 0 then begin
            Buffer.add_char b ',';
            nl ()
          end;
          pad (level + 1);
          emit ~indent ~level:(level + 1) b x)
        xs;
      nl ();
      pad level;
      Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj kvs ->
      Buffer.add_char b '{';
      nl ();
      List.iteri
        (fun i (k, x) ->
          if i > 0 then begin
            Buffer.add_char b ',';
            nl ()
          end;
          pad (level + 1);
          Buffer.add_char b '"';
          escape b k;
          Buffer.add_string b "\": ";
          emit ~indent ~level:(level + 1) b x)
        kvs;
      nl ();
      pad level;
      Buffer.add_char b '}'

let to_string ?(indent = 0) v =
  let b = Buffer.create 1024 in
  emit ~indent ~level:0 b v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

type cursor = { s : string; mutable i : int }

let error c msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.i))
let peek c = if c.i < String.length c.s then Some c.s.[c.i] else None

let skip_ws c =
  while
    c.i < String.length c.s
    && match c.s.[c.i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.i <- c.i + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.i <- c.i + 1
  | _ -> error c (Printf.sprintf "expected '%c'" ch)

let literal c word v =
  let n = String.length word in
  if c.i + n <= String.length c.s && String.sub c.s c.i n = word then begin
    c.i <- c.i + n;
    v
  end
  else error c ("expected " ^ word)

let parse_string_body c =
  let b = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> error c "unterminated string"
    | Some '"' -> c.i <- c.i + 1
    | Some '\\' -> (
        c.i <- c.i + 1;
        match peek c with
        | Some '"' -> Buffer.add_char b '"'; c.i <- c.i + 1; go ()
        | Some '\\' -> Buffer.add_char b '\\'; c.i <- c.i + 1; go ()
        | Some '/' -> Buffer.add_char b '/'; c.i <- c.i + 1; go ()
        | Some 'n' -> Buffer.add_char b '\n'; c.i <- c.i + 1; go ()
        | Some 'r' -> Buffer.add_char b '\r'; c.i <- c.i + 1; go ()
        | Some 't' -> Buffer.add_char b '\t'; c.i <- c.i + 1; go ()
        | Some 'b' -> Buffer.add_char b '\b'; c.i <- c.i + 1; go ()
        | Some 'f' -> Buffer.add_char b '\012'; c.i <- c.i + 1; go ()
        | Some 'u' ->
            if c.i + 5 > String.length c.s then error c "truncated \\u escape";
            let hex = String.sub c.s (c.i + 1) 4 in
            let code =
              try int_of_string ("0x" ^ hex) with _ -> error c "bad \\u escape"
            in
            (* BMP only, encoded as UTF-8; enough for our own output *)
            if code < 0x80 then Buffer.add_char b (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
            end;
            c.i <- c.i + 5;
            go ()
        | _ -> error c "bad escape")
    | Some ch ->
        Buffer.add_char b ch;
        c.i <- c.i + 1;
        go ()
  in
  go ();
  Buffer.contents b

let parse_number c =
  let start = c.i in
  let number_char ch =
    match ch with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  while (match peek c with Some ch -> number_char ch | None -> false) do
    c.i <- c.i + 1
  done;
  match float_of_string_opt (String.sub c.s start (c.i - start)) with
  | Some x -> Num x
  | None -> error c "bad number"

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> error c "unexpected end of input"
  | Some '{' ->
      c.i <- c.i + 1;
      skip_ws c;
      if peek c = Some '}' then begin
        c.i <- c.i + 1;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws c;
          expect c '"';
          let k = parse_string_body c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.i <- c.i + 1;
              members ((k, v) :: acc)
          | Some '}' ->
              c.i <- c.i + 1;
              List.rev ((k, v) :: acc)
          | _ -> error c "expected ',' or '}'"
        in
        Obj (members [])
      end
  | Some '[' ->
      c.i <- c.i + 1;
      skip_ws c;
      if peek c = Some ']' then begin
        c.i <- c.i + 1;
        List []
      end
      else begin
        let rec elements acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.i <- c.i + 1;
              elements (v :: acc)
          | Some ']' ->
              c.i <- c.i + 1;
              List.rev (v :: acc)
          | _ -> error c "expected ',' or ']'"
        in
        List (elements [])
      end
  | Some '"' ->
      c.i <- c.i + 1;
      Str (parse_string_body c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> parse_number c

let parse s =
  let c = { s; i = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.i <> String.length s then Error (Printf.sprintf "trailing garbage at offset %d" c.i)
      else Ok v
  | exception Parse_error msg -> Error msg

(* --- accessors ----------------------------------------------------- *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let to_list_opt = function List xs -> Some xs | _ -> None
let to_float_opt = function Num x -> Some x | _ -> None
let to_string_opt = function Str s -> Some s | _ -> None
