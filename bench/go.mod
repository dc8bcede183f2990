module forkwatch/bench

go 1.22

require forkwatch v0.0.0

replace forkwatch => ../
