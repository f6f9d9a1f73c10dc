let rec remove_one x = function
  | [] -> []
  | y :: rest -> if Int.equal y x then rest else y :: remove_one x rest

let rec mem x = function [] -> false | y :: rest -> Int.equal y x || mem x rest
let add_new x xs = if mem x xs then xs else x :: xs
