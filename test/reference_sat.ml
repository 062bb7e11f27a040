(* The tests' independent SAT oracle: a deliberately plain CDCL solver and
   a brute-force enumerator.

   The reference solver has two watched literals and first-UIP learning,
   and nothing else: it branches on the lowest unassigned variable (always
   false first), never restarts, never deletes a learnt clause and does no
   minimization or inprocessing.  It shares no code with [Satkit.Solver]
   beyond the {!Satkit.Lit} encoding, so a bug in the kernel's deletion,
   minimization or inprocessing cannot hide in both.  The tests use it to
   check the kernel's UNSAT answers; SAT answers are checked against the
   clauses themselves.  Brute force checks the reference on small
   instances. *)

module Lit = Satkit.Lit

type answer = Sat of bool array | Unsat

let holds model l = model.(Lit.var l) <> Lit.is_neg l
let satisfies model clauses = List.for_all (List.exists (holds model)) clauses

(* Number of variables a clause list mentions. *)
let num_vars_of clauses =
  List.fold_left (List.fold_left (fun n l -> max n (Lit.var l + 1))) 0 clauses

(* Is any of the 2^num_vars assignments a model?  For num_vars <= ~20. *)
let brute_force num_vars clauses =
  let model = Array.make num_vars false in
  let rec go a =
    a < 1 lsl num_vars
    && begin
      Array.iteri (fun v _ -> model.(v) <- (a lsr v) land 1 = 1) model;
      satisfies model clauses || go (a + 1)
    end
  in
  go 0

type state = {
  value : int array;  (* var -> -1 unassigned | 0 false | 1 true *)
  level : int array;
  reason : int array array;  (* [||] for decisions and unit clauses *)
  watches : int array list array;  (* literal -> clauses watching it *)
  trail : int array;
  mutable trail_len : int;
  lim : int array;  (* trail length at the start of each decision level *)
  mutable levels : int;
  mutable qhead : int;
  seen : bool array;
}

(* -1 unassigned, 0 false, 1 true *)
let value s l =
  let a = s.value.(Lit.var l) in
  if a < 0 then a else if Lit.is_neg l then 1 - a else a

let assign s l reason =
  let v = Lit.var l in
  s.value.(v) <- (if Lit.is_neg l then 0 else 1);
  s.level.(v) <- s.levels;
  s.reason.(v) <- reason;
  s.trail.(s.trail_len) <- l;
  s.trail_len <- s.trail_len + 1

let watch s c =
  s.watches.(c.(0)) <- c :: s.watches.(c.(0));
  s.watches.(c.(1)) <- c :: s.watches.(c.(1))

(* Every clause keeps its two watches in positions 0 and 1; a unit clause
   implies its position-0 literal, which is what [analyze] relies on. *)
let rec propagate s =
  if s.qhead >= s.trail_len then None
  else begin
    let falsified = Lit.neg s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    let pending = s.watches.(falsified) in
    s.watches.(falsified) <- [];
    let keep c = s.watches.(falsified) <- c :: s.watches.(falsified) in
    let rec visit = function
      | [] -> propagate s
      | c :: rest ->
        if c.(0) = falsified then begin
          c.(0) <- c.(1);
          c.(1) <- falsified
        end;
        let rec replacement k =
          if k >= Array.length c then None
          else if value s c.(k) <> 0 then Some k
          else replacement (k + 1)
        in
        if value s c.(0) = 1 then (keep c; visit rest)
        else
          match replacement 2 with
          | Some k ->
            c.(1) <- c.(k);
            c.(k) <- falsified;
            s.watches.(c.(1)) <- c :: s.watches.(c.(1));
            visit rest
          | None ->
            keep c;
            if value s c.(0) = 0 then (List.iter keep rest; Some c)
            else (assign s c.(0) c; visit rest)
    in
    visit pending
  end

(* First-UIP learning: returns the learnt clause, asserting literal first
   and a literal of the backjump level second, and that level. *)
let analyze s confl =
  let learnt = ref [] and open_paths = ref 0 in
  let add q =
    let v = Lit.var q in
    if (not s.seen.(v)) && s.level.(v) > 0 then begin
      s.seen.(v) <- true;
      if s.level.(v) = s.levels then incr open_paths else learnt := q :: !learnt
    end
  in
  Array.iter add confl;
  let rec walk i =
    let p = s.trail.(i) in
    let v = Lit.var p in
    if not s.seen.(v) then walk (i - 1)
    else begin
      s.seen.(v) <- false;
      decr open_paths;
      if !open_paths = 0 then p
      else begin
        Array.iteri (fun j q -> if j > 0 then add q) s.reason.(v);
        walk (i - 1)
      end
    end
  in
  let uip = walk (s.trail_len - 1) in
  List.iter (fun q -> s.seen.(Lit.var q) <- false) !learnt;
  let c = Array.of_list (Lit.neg uip :: !learnt) in
  let lvl i = s.level.(Lit.var c.(i)) in
  let second = ref 1 in
  for i = 2 to Array.length c - 1 do
    if lvl i > lvl !second then second := i
  done;
  if Array.length c = 1 then (c, 0)
  else begin
    let q = c.(1) in
    c.(1) <- c.(!second);
    c.(!second) <- q;
    (c, lvl 1)
  end

let backjump s lvl =
  if s.levels > lvl then begin
    for i = s.lim.(lvl) to s.trail_len - 1 do
      s.value.(Lit.var s.trail.(i)) <- -1
    done;
    s.trail_len <- s.lim.(lvl);
    s.qhead <- s.trail_len;
    s.levels <- lvl
  end

(* Decide satisfiability of [clauses] over [num_vars] variables (raised to
   cover every literal that appears).  Assumptions are unit clauses. *)
let solve ?(num_vars = 0) clauses =
  let n = max num_vars (num_vars_of clauses) in
  let s =
    {
      value = Array.make n (-1); level = Array.make n 0;
      reason = Array.make n [||]; watches = Array.make (2 * n) [];
      trail = Array.make n 0; trail_len = 0; lim = Array.make (n + 1) 0;
      levels = 0; qhead = 0; seen = Array.make n false;
    }
  in
  let add_input ok clause =
    let lits = List.sort_uniq compare clause in
    ok
    && (List.exists (fun l -> List.mem (Lit.neg l) lits) lits
       ||
       match lits with
       | [] -> false
       | [ l ] -> value s l = 1 || (value s l < 0 && (assign s l [||]; true))
       | _ -> (watch s (Array.of_list lits); true))
  in
  let rec search () =
    match propagate s with
    | Some confl ->
      if s.levels = 0 then Unsat
      else begin
        let c, lvl = analyze s confl in
        backjump s lvl;
        if Array.length c > 1 then watch s c;
        assign s c.(0) (if Array.length c > 1 then c else [||]);
        search ()
      end
    | None -> (
      let rec free v = if v >= n || s.value.(v) < 0 then v else free (v + 1) in
      match free 0 with
      | v when v >= n -> Sat (Array.map (fun a -> a = 1) s.value)
      | v ->
        s.lim.(s.levels) <- s.trail_len;
        s.levels <- s.levels + 1;
        assign s (Lit.of_var v ~negated:true) [||];
        search ())
  in
  if List.fold_left add_input true clauses then search () else Unsat
