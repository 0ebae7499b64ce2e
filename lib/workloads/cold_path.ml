let source ~salt ~n =
  let buf = Buffer.create (n * 64) in
  Buffer.add_string buf "global out: int[64];\n\nkernel k() {\n  var x: int = tid();\n";
  for i = 0 to n - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  if (x == -%d) {\n    x = x * %d + %d;\n  }\n" (i + 1)
         (1 + ((salt + i) mod 3))
         ((salt * 7) + i))
  done;
  Buffer.add_string buf "  out[tid()] = x;\n}\n";
  Buffer.contents buf
