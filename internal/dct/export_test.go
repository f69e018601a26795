package dct

// InverseBorderGo exposes the scalar border path to the external
// benchmarks, which decode their blocks with packages that import dct.
var InverseBorderGo = inverseBorderGo
