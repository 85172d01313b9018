let buckets = [| 15_000; 150_000; 1_500_000; 15_000_000; 150_000_000 |]

let bucketize fcts =
  let groups = Array.map (fun _ -> ref []) buckets in
  Array.iter
    (fun (size, fct) ->
      let rec place i =
        if i >= Array.length buckets - 1 || size <= buckets.(i) then i
        else place (i + 1)
      in
      let i = place 0 in
      groups.(i) := Units.Time.to_secs fct :: !(groups.(i)))
    fcts;
  Array.map (fun g -> Array.of_list (List.rev !g)) groups

let p95 per_bucket =
  Array.map
    (fun xs ->
      if Array.length xs = 0 then nan else Nimbus_dsp.Stats.percentile xs 95.)
    per_bucket

let bucket_label bound =
  if bound >= 1_000_000 then Printf.sprintf "%gMB" (float_of_int bound /. 1e6)
  else Printf.sprintf "%gKB" (float_of_int bound /. 1e3)
