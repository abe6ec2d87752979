#include "ecocloud/util/string_util.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace ecocloud::util {

std::string trim(const std::string& s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) --end;
  return s.substr(begin, end - begin);
}

std::vector<std::string> split(const std::string& s, char delim) {
  std::vector<std::string> parts;
  std::string current;
  for (char c : s) {
    if (c == delim) {
      parts.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  parts.push_back(current);
  return parts;
}

double parse_double(const std::string& s) {
  const std::string t = trim(s);
  if (t.empty()) throw std::invalid_argument("parse_double: empty field");
  char* end = nullptr;
  const double value = std::strtod(t.c_str(), &end);
  if (end == t.c_str() || *end != '\0') {
    throw std::invalid_argument("parse_double: invalid number '" + s + "'");
  }
  return value;
}

long long parse_int(const std::string& s) {
  const std::string t = trim(s);
  if (t.empty()) throw std::invalid_argument("parse_int: empty field");
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(t.c_str(), &end, 10);
  if (end == t.c_str() || *end != '\0') {
    throw std::invalid_argument("parse_int: invalid integer '" + s + "'");
  }
  // strtoll saturates at LLONG_MIN/MAX on overflow; never hand that back.
  if (errno == ERANGE) {
    throw std::invalid_argument("parse_int: integer out of range '" + s + "'");
  }
  return value;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

}  // namespace ecocloud::util
