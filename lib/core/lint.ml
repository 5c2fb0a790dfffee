open Rd_addr
open Rd_config

(* A referencable entity kind; refs and defs are matched per file, since an
   IOS configuration is self-contained per device. *)
type kind = Acl | Route_map | Prefix_list

let describe = function
  | Acl -> "access-list"
  | Route_map -> "route-map"
  | Prefix_list -> "prefix-list"

let undefined_code = function
  | Acl -> "lint-undefined-acl"
  | Route_map -> "lint-undefined-route-map"
  | Prefix_list -> "lint-undefined-prefix-list"

(* Redistribution sources that need no metric when injected into OSPF:
   connected/static routes get a sensible default, other protocols land
   with an incomparable metric unless one is given. *)
let metric_exempt_source = function "connected" | "static" -> true | _ -> false

let lint_config ~file text =
  let lines = Lexer.lines_of_string text in
  let _ast, parse_diags =
    Parser.parse_lines_with_diags ~file ~physical:(Lexer.physical_lines text) lines
  in
  let rules = ref [] in
  let emit ?line severity ~code fmt =
    Printf.ksprintf
      (fun message -> rules := { Diag.severity; code; file = Some file; line; message } :: !rules)
      fmt
  in
  let acl_defs : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let rm_defs : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let rm_seqs : (string * int, int) Hashtbl.t = Hashtbl.create 8 in
  let pl_defs : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let def tbl name lineno = if not (Hashtbl.mem tbl name) then Hashtbl.add tbl name lineno in
  let refs = ref [] in
  (* (kind, name, lineno) in reverse document order *)
  let add_ref kind name lineno = refs := (kind, name, lineno) :: !refs in
  (* BGP neighbors: (block id, peer) -> (first line, saw remote-as) *)
  let neighbors : (int * string, int * bool ref) Hashtbl.t = Hashtbl.create 8 in
  (* (block, name) of [neighbor <name> peer-group] declarations, and
     (block, peer) -> group of [neighbor <peer> peer-group <group>]
     memberships: a member inherits the group's remote-as. *)
  let peer_groups : (int * string, unit) Hashtbl.t = Hashtbl.create 4 in
  let group_membership : (int * string, string) Hashtbl.t = Hashtbl.create 4 in
  let if_addrs = ref [] in
  (* (interface name, prefix, lineno) in reverse document order *)
  let context = ref [] in
  let block_id = ref 0 in
  let top (l : Lexer.line) =
    incr block_id;
    context := l.words;
    match l.words with
    | "access-list" :: name :: _ -> def acl_defs name l.lineno
    | [ "ip"; "access-list"; ("standard" | "extended"); name ] ->
      (match Hashtbl.find_opt acl_defs name with
       | Some first ->
         emit ~line:l.lineno Diag.Warning ~code:"lint-duplicate-acl"
           "access-list %s redefined (first defined at line %d)" name first
       | None -> Hashtbl.add acl_defs name l.lineno)
    | "route-map" :: name :: rest ->
      def rm_defs name l.lineno;
      (match rest with
       | [ _action; seq ] ->
         (match int_of_string_opt seq with
          | Some s ->
            (match Hashtbl.find_opt rm_seqs (name, s) with
             | Some first ->
               emit ~line:l.lineno Diag.Warning ~code:"lint-duplicate-route-map-seq"
                 "route-map %s sequence %d redefined (first defined at line %d)" name s first
             | None -> Hashtbl.add rm_seqs (name, s) l.lineno)
          | None -> ())
       | _ -> ())
    | "ip" :: "prefix-list" :: name :: _ -> def pl_defs name l.lineno
    | _ -> ()
  in
  let interface_sub ifname (l : Lexer.line) =
    match l.words with
    | "ip" :: "access-group" :: name :: _ -> add_ref Acl name l.lineno
    | "ip" :: "address" :: a :: m :: _ ->
      (match Ipv4.of_string a with
       | Some addr ->
         (match Option.bind (Ipv4.of_string m) (Prefix.of_addr_mask addr) with
          | Some p -> if_addrs := (ifname, p, l.lineno) :: !if_addrs
          | None -> ())
       | None -> ())
    | _ -> ()
  in
  let rec scan_route_map_refs lineno = function
    (* route-map bodies: match ip address [prefix-list] N1 N2 ..., and
       continue/next-hop style lines are irrelevant here. *)
    | "match" :: "ip" :: "address" :: "prefix-list" :: names ->
      List.iter (fun n -> add_ref Prefix_list n lineno) names
    | "match" :: "ip" :: "address" :: names ->
      List.iter (fun n -> add_ref Acl n lineno) names
    | _ :: rest -> scan_route_map_refs lineno rest
    | [] -> ()
  in
  let router_sub proto (l : Lexer.line) =
    match l.words with
    | "distribute-list" :: name :: _ -> add_ref Acl name l.lineno
    | "redistribute" :: source :: rest ->
      (let rec route_map_of = function
         | "route-map" :: name :: _ -> Some name
         | _ :: tl -> route_map_of tl
         | [] -> None
       in
       match route_map_of rest with
       | Some name -> add_ref Route_map name l.lineno
       | None -> ());
      if proto = "ospf" && (not (metric_exempt_source source))
         && not (List.mem "metric" rest)
      then
        emit ~line:l.lineno Diag.Warning ~code:"lint-redistribute-no-metric"
          "redistribute %s into OSPF without an explicit metric" source
    | "neighbor" :: peer :: rest ->
      if proto = "bgp" then begin
        let entry =
          match Hashtbl.find_opt neighbors (!block_id, peer) with
          | Some e -> e
          | None ->
            let e = (l.lineno, ref false) in
            Hashtbl.add neighbors (!block_id, peer) e;
            e
        in
        match rest with
        | "remote-as" :: _ -> snd entry := true
        | [ "peer-group" ] -> Hashtbl.replace peer_groups (!block_id, peer) ()
        | "peer-group" :: group :: _ ->
          Hashtbl.replace group_membership (!block_id, peer) group
        | _ -> ()
      end;
      (match rest with
       | "distribute-list" :: name :: _ -> add_ref Acl name l.lineno
       | "filter-list" :: _ -> ()
       | "prefix-list" :: name :: _ -> add_ref Prefix_list name l.lineno
       | "route-map" :: name :: _ -> add_ref Route_map name l.lineno
       | _ -> ())
    | _ -> ()
  in
  List.iter
    (fun (l : Lexer.line) ->
      if l.indent = 0 then top l
      else
        match !context with
        | "interface" :: ifname :: _ -> interface_sub ifname l
        | "router" :: proto :: _ -> router_sub proto l
        | "route-map" :: _ -> scan_route_map_refs l.lineno l.words
        | "line" :: _ ->
          (match l.words with
           | "access-class" :: name :: _ -> add_ref Acl name l.lineno
           | _ -> ())
        | _ -> ())
    lines;
  (* Dangling references. *)
  let defs_of = function Acl -> acl_defs | Route_map -> rm_defs | Prefix_list -> pl_defs in
  let referenced : (kind * string, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (kind, name, lineno) ->
      Hashtbl.replace referenced (kind, name) ();
      if not (Hashtbl.mem (defs_of kind) name) then
        emit ~line:lineno Diag.Error ~code:(undefined_code kind) "%s %s is referenced but never defined"
          (describe kind) name)
    (List.rev !refs);
  (* Unused definitions. *)
  let unused tbl kind code =
    Hashtbl.iter
      (fun name lineno ->
        if not (Hashtbl.mem referenced (kind, name)) then
          emit ~line:lineno Diag.Warning ~code "%s %s is defined but never applied" (describe kind)
            name)
      tbl
  in
  unused acl_defs Acl "lint-unused-acl";
  unused rm_defs Route_map "lint-unused-route-map";
  (* BGP neighbors missing remote-as. *)
  Hashtbl.iter
    (fun (block, peer) (lineno, has_remote) ->
      (* A peer-group declaration is a template, not a session; a
         member whose group supplies remote-as inherits it. *)
      let group_covers =
        match Hashtbl.find_opt group_membership (block, peer) with
        | Some group -> (
          match Hashtbl.find_opt neighbors (block, group) with
          | Some (_, group_remote) -> !group_remote
          | None -> false)
        | None -> false
      in
      if
        (not !has_remote)
        && (not (Hashtbl.mem peer_groups (block, peer)))
        && not group_covers
      then
        emit ~line:lineno Diag.Error ~code:"lint-neighbor-no-remote-as"
          "BGP neighbor %s has no remote-as; the session cannot establish" peer)
    neighbors;
  (* Interface address overlaps within this router. *)
  let addrs = Array.of_list (List.rev !if_addrs) in
  Array.iteri
    (fun j (ifj, pj, lj) ->
      for i = 0 to j - 1 do
        let ifi, pi, _ = addrs.(i) in
        if Prefix.overlap pi pj then
          emit ~line:lj Diag.Warning ~code:"lint-interface-overlap"
            "interface %s address %s overlaps %s on interface %s" ifj (Prefix.to_string pj)
            (Prefix.to_string pi) ifi
      done)
    addrs;
  let line_of (d : Diag.t) = Option.value d.line ~default:0 in
  let rule_diags =
    List.stable_sort (fun a b -> Int.compare (line_of a) (line_of b)) (List.rev !rules)
  in
  parse_diags @ rule_diags

let lint_files ?jobs files =
  List.concat (Rd_util.Pool.parallel_map ?jobs (fun (f, text) -> lint_config ~file:f text) files)

let render = Diag.render

let to_json = Diag.to_json
