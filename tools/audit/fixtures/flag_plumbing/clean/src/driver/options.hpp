#pragma once
#include <string>

struct DriverOptions {
  std::string app = "spmv";
  std::string output;
  bool study_only = true;
};
