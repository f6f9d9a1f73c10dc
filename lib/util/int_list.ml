let rec remove_one x = function
  | [] -> []
  | y :: rest -> if Int.equal y x then rest else y :: remove_one x rest
