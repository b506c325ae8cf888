package main

import "fixture/internal/shapes"

var _ = shapes.ArmName()
