(* Source-comment pragmas, the analyzer's one pragma syntax:

     (* lint: allow <rule> *)        on the finding line or the line above
     (* lint: allow <rule> file *)   anywhere, whole file

   and the hot entry-point tag — "hot-path" after the usual "lint:"
   prefix, in a comment within two lines above a toplevel [let] — which
   marks that definition a hot entry point.

   Pragmas are only honored inside comments: the scanner strips string
   literals (including {|...|} quoted strings) first, so a pragma-shaped
   string constant does not suppress findings. A rule is a word of
   lowercase letters, digits and hyphens; other text after the marker,
   such as the placeholder above, is prose. *)

type t = {
  allows : (string * int * bool) list;  (** rule, line, file_scoped; last line first *)
  hot_lines : int list;  (** lines carrying the hot-path tag *)
}

let empty = { allows = []; hot_lines = [] }

(* Keep only comment interiors; blank everything else (newlines kept).
   Strings — plain and quoted — are skipped both inside and outside
   comments, as the OCaml lexer does. *)
let comments_only src =
  let n = String.length src in
  let out = Bytes.make n ' ' in
  String.iteri (fun i c -> if c = '\n' then Bytes.set out i '\n') src;
  let rec skip_string i =
    if i >= n then i
    else
      match src.[i] with
      | '"' -> i + 1
      | '\\' when i + 1 < n -> skip_string (i + 2)
      | _ -> skip_string (i + 1)
  in
  let rec skip_quoted i closing =
    let m = String.length closing in
    if i >= n then i
    else if i + m <= n && String.sub src i m = closing then i + m
    else skip_quoted (i + 1) closing
  in
  let quoted_close i =
    (* at '{': a quoted-string opener? return (close-delim, body-start) *)
    let j = ref (i + 1) in
    while !j < n && ((src.[!j] >= 'a' && src.[!j] <= 'z') || src.[!j] = '_') do
      incr j
    done;
    if !j < n && src.[!j] = '|' then
      Some ("|" ^ String.sub src (i + 1) (!j - i - 1) ^ "}", !j + 1)
    else None
  in
  let rec comment i depth =
    if i >= n then i
    else if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then comment (i + 2) (depth + 1)
    else if i + 1 < n && src.[i] = '*' && src.[i + 1] = ')' then
      if depth = 1 then i + 2 else comment (i + 2) (depth - 1)
    else if src.[i] = '"' then comment (skip_string (i + 1)) depth
    else
      match if src.[i] = '{' then quoted_close i else None with
      | Some (closing, body) -> comment (skip_quoted body closing) depth
      | None ->
        Bytes.set out i src.[i];
        comment (i + 1) depth
  in
  let rec go i =
    if i < n then
      if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then go (comment (i + 2) 1)
      else if src.[i] = '"' then go (skip_string (i + 1))
      else
        match if src.[i] = '{' then quoted_close i else None with
        | Some (closing, body) -> go (skip_quoted body closing)
        | None -> go (i + 1)
  in
  go 0;
  Bytes.to_string out

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    Some s

let contains_at ~from line sub =
  let n = String.length line and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub line i m = sub then Some i else go (i + 1) in
  go from

let rule_char c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-'

let of_source src =
  let com = comments_only src in
  let lines = String.split_on_char '\n' com in
  let allows = ref [] and hot = ref [] in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      (* a line may carry several pragmas; each one's scope words stop at
         the next "lint:" marker *)
      let rec all from =
        match contains_at ~from line "lint: allow " with
        | None -> ()
        | Some p ->
          let start = p + 12 in
          let stop =
            match contains_at ~from:start line "lint:" with
            | Some q -> q
            | None -> String.length line
          in
          let rest = String.sub line start (stop - start) in
          let words =
            String.split_on_char ' ' rest |> List.filter (fun w -> w <> "" && w <> "*)" && w <> "*")
          in
          (match words with
          | rule :: tl when String.for_all rule_char rule ->
            allows := (rule, lineno, List.mem "file" tl) :: !allows
          | _ -> ());
          all start
      in
      all 0;
      match contains_at ~from:0 line "lint: hot-path" with
      | Some _ -> hot := lineno :: !hot
      | None -> ())
    lines;
  { allows = !allows; hot_lines = !hot }

let of_file path = match read_file path with None -> empty | Some src -> of_source src

(* Is a finding at [line] (or with an extra location at [line] in the
   same table) suppressed for [rule]? *)
let allowed t ~rule ~line =
  List.exists
    (fun (r, l, file_scoped) -> String.equal r rule && (file_scoped || l = line || l = line - 1))
    t.allows

let allows t = List.rev_map (fun (rule, line, _) -> (rule, line)) t.allows

let is_hot_entry t ~def_line =
  List.exists (fun l -> l = def_line - 1 || l = def_line - 2) t.hot_lines
