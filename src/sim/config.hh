/**
 * @file
 * Minimal key=value configuration store used by examples and bench
 * binaries for command-line overrides (e.g. "rps=15000 seed=7").
 */

#ifndef UMANY_SIM_CONFIG_HH
#define UMANY_SIM_CONFIG_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>

namespace umany
{

/**
 * A flat map of string parameters with typed accessors.
 *
 * Unknown keys requested with a default are not an error; requesting
 * a missing key without a default is fatal (configuration error).
 *
 * Every lookup (has() or a get) marks its key as read, so a program
 * can reject keys it never looked at — typos such as "srevers=3"
 * and retired options — with rejectUnread() once it has read all
 * of its configuration. Because lookups record into that set, one
 * Config must not be read from several threads at once.
 */
class Config
{
  public:
    Config() = default;

    /** Parse argv entries of the form key=value. Other args are fatal. */
    void parseArgs(int argc, char **argv);

    /** Set (or overwrite) a key. */
    void set(const std::string &key, const std::string &value);

    /** True if the key is present. */
    bool has(const std::string &key) const;

    std::string getString(const std::string &key) const;
    std::string getString(const std::string &key,
                          const std::string &def) const;

    std::int64_t getInt(const std::string &key) const;
    std::int64_t getInt(const std::string &key, std::int64_t def) const;

    double getDouble(const std::string &key) const;
    double getDouble(const std::string &key, double def) const;

    bool getBool(const std::string &key) const;
    bool getBool(const std::string &key, bool def) const;

    /**
     * Fatal when any set key has never been looked up; the message
     * names every such key. Call after the last read and before the
     * first simulation starts.
     */
    void rejectUnread() const;

  private:
    std::map<std::string, std::string> values_;
    /** Keys looked up so far (lookups are const, hence mutable). */
    mutable std::set<std::string> read_;

    const std::string &rawOrFatal(const std::string &key) const;
};

} // namespace umany

#endif // UMANY_SIM_CONFIG_HH
