MODULE Grid;
(* A 4x4 matrix product over flat arrays: nested FOR loops, array
   indexing through a function procedure, and four procedure streams
   that all read and write module-level state. *)

CONST N = 4;
TYPE Cells = ARRAY [0..15] OF INTEGER;
VAR a, b, c : Cells; i, j : INTEGER;

PROCEDURE At(row, col : INTEGER) : INTEGER;
BEGIN
  RETURN row * N + col
END At;

PROCEDURE Fill;
VAR r, k : INTEGER;
BEGIN
  FOR r := 0 TO N - 1 DO
    FOR k := 0 TO N - 1 DO
      a[At(r, k)] := r + k;
      IF r = k THEN b[At(r, k)] := 2 ELSE b[At(r, k)] := 0 END
    END
  END
END Fill;

PROCEDURE Multiply;
VAR r, k, t, sum : INTEGER;
BEGIN
  FOR r := 0 TO N - 1 DO
    FOR k := 0 TO N - 1 DO
      sum := 0;
      FOR t := 0 TO N - 1 DO
        sum := sum + a[At(r, t)] * b[At(t, k)]
      END;
      c[At(r, k)] := sum
    END
  END
END Multiply;

PROCEDURE Trace() : INTEGER;
VAR r, sum : INTEGER;
BEGIN
  sum := 0;
  FOR r := 0 TO N - 1 DO sum := sum + c[At(r, r)] END;
  RETURN sum
END Trace;

BEGIN
  Fill; Multiply;
  FOR i := 0 TO N - 1 DO
    FOR j := 0 TO N - 1 DO WriteInt(c[At(i, j)], 3) END;
    WriteLn
  END;
  WriteString('trace '); WriteInt(Trace(), 0); WriteLn
END Grid.
