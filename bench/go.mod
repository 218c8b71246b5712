module randsync/bench

go 1.22

require randsync v0.0.0

replace randsync => ../
