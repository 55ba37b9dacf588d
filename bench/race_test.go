//go:build race

package main

func init() { smokeSeconds = 2 }
