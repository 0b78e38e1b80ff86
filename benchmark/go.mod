module netupdate/benchmark

go 1.22

require netupdate v0.0.0

replace netupdate => ../
