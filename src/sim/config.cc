#include "sim/config.hh"

#include <cstdlib>

#include "sim/logging.hh"

namespace umany
{

void
Config::parseArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        // GNU-style flags are accepted as sugar: "--trace-out=x" is
        // the same key as "trace_out=x".
        const bool flag = arg.rfind("--", 0) == 0;
        if (flag)
            arg = arg.substr(2);
        const auto eq = arg.find('=');
        if (eq == std::string::npos || eq == 0) {
            // A bare "--flag" is boolean sugar for "flag=true"
            // ("--run-summary" == "--run-summary=true"); bare words
            // without dashes stay errors to catch typos.
            if (flag && eq == std::string::npos && !arg.empty()) {
                set(arg, "true");
                continue;
            }
            fatal("bad argument '%s': expected key=value", arg.c_str());
        }
        set(arg.substr(0, eq), arg.substr(eq + 1));
    }
}

void
Config::set(const std::string &key, const std::string &value)
{
    std::string k = key;
    for (char &c : k) {
        if (c == '-')
            c = '_';
    }
    values_[k] = value;
}

bool
Config::has(const std::string &key) const
{
    read_.insert(key);
    return values_.count(key) != 0;
}

void
Config::rejectUnread() const
{
    std::string unread;
    for (const auto &kv : values_) {
        if (read_.count(kv.first) != 0)
            continue;
        unread += unread.empty() ? "'" : ", '";
        unread += kv.first + "'";
    }
    if (!unread.empty())
        fatal("unknown config key(s) %s: this program does not read "
              "them", unread.c_str());
}

const std::string &
Config::rawOrFatal(const std::string &key) const
{
    read_.insert(key);
    auto it = values_.find(key);
    if (it == values_.end())
        fatal("missing required config key '%s'", key.c_str());
    return it->second;
}

std::string
Config::getString(const std::string &key) const
{
    return rawOrFatal(key);
}

std::string
Config::getString(const std::string &key, const std::string &def) const
{
    read_.insert(key);
    auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
}

std::int64_t
Config::getInt(const std::string &key) const
{
    const std::string &raw = rawOrFatal(key);
    char *end = nullptr;
    const long long v = std::strtoll(raw.c_str(), &end, 0);
    if (end == nullptr || *end != '\0')
        fatal("config key '%s'='%s' is not an integer", key.c_str(),
              raw.c_str());
    return v;
}

std::int64_t
Config::getInt(const std::string &key, std::int64_t def) const
{
    return has(key) ? getInt(key) : def;
}

double
Config::getDouble(const std::string &key) const
{
    const std::string &raw = rawOrFatal(key);
    char *end = nullptr;
    const double v = std::strtod(raw.c_str(), &end);
    if (end == nullptr || *end != '\0')
        fatal("config key '%s'='%s' is not a number", key.c_str(),
              raw.c_str());
    return v;
}

double
Config::getDouble(const std::string &key, double def) const
{
    return has(key) ? getDouble(key) : def;
}

bool
Config::getBool(const std::string &key) const
{
    const std::string &raw = rawOrFatal(key);
    if (raw == "true" || raw == "1" || raw == "yes" || raw == "on")
        return true;
    if (raw == "false" || raw == "0" || raw == "no" || raw == "off")
        return false;
    fatal("config key '%s'='%s' is not a boolean", key.c_str(),
          raw.c_str());
}

bool
Config::getBool(const std::string &key, bool def) const
{
    return has(key) ? getBool(key) : def;
}

} // namespace umany
