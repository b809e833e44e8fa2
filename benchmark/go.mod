module ndss/benchmark

go 1.23

require ndss v0.0.0

replace ndss => ../
