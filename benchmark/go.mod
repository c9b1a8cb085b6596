module arrayvers/benchmark

go 1.22

require arrayvers v0.0.0

replace arrayvers => ../
