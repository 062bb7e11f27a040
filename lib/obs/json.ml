(* A minimal JSON reader for the observability artifacts this repo writes
   itself (TRACE_*.jsonl, BENCH_*.json, Chrome traces).  No external
   dependency: the container pins the package set, so [report] carries its
   own recursive-descent parser.  Numbers are floats (the artifacts only
   hold scalars), objects preserve key order. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail msg = raise (Parse_error msg)

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then advance ()
    else fail (Printf.sprintf "expected '%c' at %d" c !pos)
  in
  let literal word v =
    let m = String.length word in
    if !pos + m <= n && String.sub s !pos m = word then begin
      pos := !pos + m;
      v
    end
    else fail (Printf.sprintf "bad literal at %d" !pos)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape"
           else
             match s.[!pos] with
             | '"' -> Buffer.add_char b '"'
             | '\\' -> Buffer.add_char b '\\'
             | '/' -> Buffer.add_char b '/'
             | 'n' -> Buffer.add_char b '\n'
             | 't' -> Buffer.add_char b '\t'
             | 'r' -> Buffer.add_char b '\r'
             | 'b' -> Buffer.add_char b '\b'
             | 'f' -> Buffer.add_char b '\012'
             | 'u' ->
               if !pos + 4 >= n then fail "bad \\u escape";
               let hex = String.sub s (!pos + 1) 4 in
               let code =
                 try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape"
               in
               (* the artifacts only escape control characters, which are
                  single-byte; anything else degrades to '?' *)
               if code < 0x80 then Buffer.add_char b (Char.chr code)
               else Buffer.add_char b '?';
               pos := !pos + 4
             | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
          advance ();
          go ()
        | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let numchar c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && numchar s.[!pos] do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail (Printf.sprintf "bad number at %d" start)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> fail (Printf.sprintf "expected ',' or '}' at %d" !pos)
        in
        Obj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail (Printf.sprintf "expected ',' or ']' at %d" !pos)
        in
        Arr (elements [])
      end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail (Printf.sprintf "trailing input at %d" !pos);
  v

let parse_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse (really_input_string ic (in_channel_length ic)))

(* -- accessors -- *)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let to_num = function
  | Num f -> Some f
  | _ -> None

let to_string = function
  | Str s -> Some s
  | _ -> None

let to_list = function
  | Arr l -> Some l
  | _ -> None

let num_member key j = Option.bind (member key j) to_num
let str_member key j = Option.bind (member key j) to_string
let int_member key j = Option.map int_of_float (num_member key j)
